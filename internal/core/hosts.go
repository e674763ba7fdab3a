package core

import (
	"net"
	"slices"
	"strings"
	"unicode/utf8"

	"smartsock/internal/reqlang"
	"smartsock/internal/store"
)

// How a record's host, a list entry and a reply address relate, and the
// resolver that turns the lists into snapshot positions per selection.

// splitHost strips an address down to its host and reports whether it
// carried a port: "h:9000" and "[fe80::1]:9000" do; "h", "fe80::1" and
// "[fe80::1]" do not.
func splitHost(addr string) (host string, hasPort bool) {
	if strings.Count(addr, ":") == 1 || strings.Contains(addr, "]:") {
		if h, _, err := net.SplitHostPort(addr); err == nil {
			return h, true
		}
	}
	return strings.TrimSuffix(strings.TrimPrefix(addr, "["), "]"), false
}

// hostKey is the host without its port, folded as strings.EqualFold folds.
func hostKey(addr string) string {
	h, _ := splitHost(addr)
	return reqlang.FoldKey(h)
}

// folded reports reqlang.FoldKey(h) == h, making no key for ASCII.
func folded(h string) bool {
	for i := 0; i < len(h); i++ {
		if c := h[i]; c >= utf8.RuneSelf {
			return reqlang.FoldKey(h) == h
		} else if 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return true
}

// hostAliases lists the hosts whose name is not their key (mixed case,
// a port, brackets), by position and without the port: nil for a
// lower-case, port-less fleet. An entry finds them by EqualFold, as
// matchHost did, at most the per-lane matcher's cost whatever their share.
type hostAliases struct {
	members uint64 // store.SysSnapshot.Members
	pos     []int
	host    []string
}

// aliasesFor returns snap's aliases, rebuilt when its hosts changed.
func (s *Selector) aliasesFor(snap *store.SysSnapshot) *hostAliases {
	if a := s.aliases.Load(); a != nil && a.members == snap.Members() {
		return a
	}
	a := &hostAliases{members: snap.Members()}
	for i := range snap.Len() {
		name := snap.Host(i)
		if h, _ := splitHost(name); h != name || !folded(h) {
			if a.pos == nil { // room for the rest: appends alone allocate ~5x the list
				a.pos, a.host = make([]int, 0, snap.Len()-i), make([]string, 0, snap.Len()-i)
			}
			a.pos, a.host = append(a.pos, i), append(a.host, h)
		}
	}
	s.aliases.Store(a)
	return a
}

// resolveHosts fills sc: program string j names the hosts at positions
// hostPos[hostAt[j]:hostAt[j+1]]; "", an unset parameter, names none.
func (s *Selector) resolveHosts(q *query, sc *scratch) {
	sc.hostAt, sc.hostPos = append(sc.hostAt[:0], 0, 0), sc.hostPos[:0]
	aliases := s.aliasesFor(q.snap)
	for _, key := range q.info.hosts[1:] {
		// The host spelled as the key, unless keyed otherwise ("[h]" is "h").
		if i, ok := q.snap.Find(key); ok && hostKey(key) == key {
			sc.hostPos = append(sc.hostPos, i)
		}
		for j, h := range aliases.host {
			if strings.EqualFold(h, key) {
				sc.hostPos = append(sc.hostPos, aliases.pos[j])
			}
		}
		sc.hostAt = append(sc.hostAt, len(sc.hostPos))
	}
}

// listed reports whether a lane's denied entries name the record at pos,
// and the slot of the first preferred entry that does, -1 for none: every
// candidate ran every assignment, so slots order them as their lists do.
func (sc *scratch) listed(env *reqlang.Env, params, lane, pos int) (denied bool, preferred int) {
	preferred = -1
	for k := range params {
		str, deny := env.Param(k, lane)
		switch hit := slices.Contains(sc.hostPos[sc.hostAt[str]:sc.hostAt[str+1]], pos); {
		case hit && deny:
			denied = true
		case hit && preferred < 0:
			preferred = k
		}
	}
	return denied, preferred
}

// dialAddr renders a host as a dialable address: one that carries no
// port of its own gets the service port, an IPv6 one in brackets.
func (s *Selector) dialAddr(host string) string {
	h, hasPort := splitHost(host)
	if s.port == "" || hasPort {
		return host
	}
	return net.JoinHostPort(h, s.port)
}

// isChosen matches a decision's host against the (possibly
// port-suffixed) selected addresses.
func isChosen(host string, chosen map[string]bool) bool {
	if chosen[host] {
		return true
	}
	h, _ := splitHost(host)
	for addr := range chosen {
		if a, _ := splitHost(addr); a == h {
			return true
		}
	}
	return false
}
