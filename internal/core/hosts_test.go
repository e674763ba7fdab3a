package core

import (
	"strings"
	"testing"
)

// FuzzHostKey holds the resolver's key to the string matcher it
// replaced: two names share a key exactly when matchHost matches one
// against the other, whatever their case, ports, brackets or bytes, and
// an alias's EqualFold against the key agrees.
func FuzzHostKey(f *testing.F) {
	for _, seed := range [][2]string{
		{"h:9000", "H:9001"}, {"\u212Aelvin", "KELVIN"}, {"\u212A", "k"}, {"\u017Ferver", "Server"},
		{"[FE80::1]:7", "fe80::1"}, {"[[a]]", "[a]"}, {"fe80::1", "fe80:"}, {"\u01C5", "\u01C6"},
		{"bad\xff", "BAD\xfe"}, {"bad\xff", "bad\uFFFD"}, {"\u0130", "i"}, {"\u03A3", "\u03C2"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		want := matchHost(a, []string{b}) == 0
		if got := hostKey(a) == hostKey(b); got != want {
			t.Fatalf("hostKey(%q) = %q, hostKey(%q) = %q, but matchHost matches them: %t", a, hostKey(a), b, hostKey(b), want)
		}
		if h, _ := splitHost(a); strings.EqualFold(h, hostKey(b)) != want {
			t.Fatalf("an alias %q compared with key %q disagrees with matchHost: %t", a, hostKey(b), want)
		}
	})
}
