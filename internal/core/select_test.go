package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
)

func mustProg(t testing.TB, src string) *reqlang.Program {
	t.Helper()
	p, err := reqlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// idleHost registers an unloaded server in the db.
func idleHost(db *store.DB, name string, bogomips float64, memMB uint64) {
	db.PutSys(sysinfo.Idle(name, bogomips, memMB))
}

func newSelector(t testing.TB, db *store.DB, cfg Config) *Selector {
	t.Helper()
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSelectByCPUAndMemory(t *testing.T) {
	db := store.New()
	idleHost(db, "fast1", 4771, 512)
	idleHost(db, "fast2", 4771, 512)
	idleHost(db, "slow", 3185, 128)
	busy := sysinfo.Idle("busy", 4771, 512)
	busy.CPUIdle = 0.2
	db.PutSys(busy)

	s := newSelector(t, db, Config{})
	prog := mustProg(t, `(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && (host_memory_free > 5)`)
	res, err := s.Select(prog, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"fast1", "fast2"}) {
		t.Errorf("Servers = %v", res.Servers)
	}
	if res.Decisions != nil {
		t.Errorf("Select kept %d per-host decisions; only Explain does", len(res.Decisions))
	}
	// Explain's decisions account for every host.
	if res, err = s.Explain(prog, 2, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"fast1", "fast2"}) || len(res.Decisions) != 4 {
		t.Errorf("Explain: servers %v, %d decisions", res.Servers, len(res.Decisions))
	}
	byHost := map[string]Decision{}
	for _, d := range res.Decisions {
		byHost[d.Host] = d
	}
	if byHost["slow"].Qualified || byHost["busy"].Qualified {
		t.Error("slow/busy should not qualify")
	}
	if byHost["busy"].FailedLine != 1 {
		t.Errorf("busy failed at line %d, want 1", byHost["busy"].FailedLine)
	}
}

func TestShortfallWithoutPartialOKIsError(t *testing.T) {
	db := store.New()
	idleHost(db, "only", 4771, 512)
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free > 0.5")
	if _, err := s.Select(prog, 3, 0); err == nil {
		t.Error("expected error for shortfall without OptPartialOK")
	}
	res, err := s.Select(prog, 3, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != 1 || res.Shortfall != 2 {
		t.Errorf("partial result = %v shortfall %d", res.Servers, res.Shortfall)
	}
}

func TestDeniedHostsAreNeverSelected(t *testing.T) {
	// Fig 1.4: host C2 "is not chosen since it is blacklisted" even
	// though it qualifies on resources.
	db := store.New()
	idleHost(db, "c1", 4771, 512)
	idleHost(db, "c2", 4771, 512)
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free > 0.5\nuser_denied_host1 = c2\n")
	res, err := s.Select(prog, 2, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"c1"}) {
		t.Errorf("Servers = %v, want [c1]", res.Servers)
	}
	if res, err = s.Explain(prog, 2, proto.OptPartialOK); err != nil || len(res.Decisions) != 2 {
		t.Fatalf("Explain: %d decisions, err %v", len(res.Decisions), err)
	}
	for _, d := range res.Decisions {
		if d.Host == "c2" && (!d.Denied || d.Qualified) {
			t.Errorf("c2 decision = %+v", d)
		}
	}
}

func TestPreferredHostsComeFirst(t *testing.T) {
	db := store.New()
	idleHost(db, "aaa", 4771, 512)
	idleHost(db, "zzz", 4771, 512)
	s := newSelector(t, db, Config{})
	// zzz scans after aaa but is preferred, so it must lead the list.
	prog := mustProg(t, "host_cpu_free > 0.5\nuser_preferred_host1 = zzz\n")
	res, err := s.Select(prog, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"zzz", "aaa"}) {
		t.Errorf("Servers = %v, want preferred first", res.Servers)
	}
}

func TestPreferredOrderingFollowsUserList(t *testing.T) {
	db := store.New()
	for _, h := range []string{"a", "b", "c"} {
		idleHost(db, h, 4771, 512)
	}
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free > 0.5\nuser_preferred_host1 = c\nuser_preferred_host2 = a\n")
	res, err := s.Select(prog, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"c", "a", "b"}) {
		t.Errorf("Servers = %v, want [c a b]", res.Servers)
	}
}

func TestPreferredMustStillQualify(t *testing.T) {
	db := store.New()
	idleHost(db, "good", 4771, 512)
	busy := sysinfo.Idle("favourite", 4771, 512)
	busy.CPUIdle = 0.1
	db.PutSys(busy)
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free > 0.9\nuser_preferred_host1 = favourite\n")
	res, err := s.Select(prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"good"}) {
		t.Errorf("Servers = %v: a preferred host must still meet the requirement", res.Servers)
	}
}

func TestNetworkVariablesFromNetdb(t *testing.T) {
	// The massd requirement: monitor_network_bw > 6 picks servers in
	// the fast group (Table 5.7).
	db := store.New()
	idleHost(db, "lhost", 1730, 128)     // group-1, fast path
	idleHost(db, "pandora-x", 3591, 256) // group-2, slow path
	db.PutNet(status.NetMetric{From: "local", To: "group-1", Delay: 2 * time.Millisecond, Bandwidth: 6.72e6})
	db.PutNet(status.NetMetric{From: "local", To: "group-2", Delay: 2 * time.Millisecond, Bandwidth: 1.33e6})
	groups := map[string]string{"lhost": "group-1", "pandora-x": "group-2"}
	s := newSelector(t, db, Config{
		LocalMonitor: "local",
		GroupOf:      func(h string) string { return groups[h] },
	})
	prog := mustProg(t, "monitor_network_bw > 6")
	res, err := s.Select(prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"lhost"}) {
		t.Errorf("Servers = %v, want [lhost]", res.Servers)
	}
}

func TestLocalGroupBypassesNetworkConstraints(t *testing.T) {
	// §3.3.3: "in the local area network, the bandwidth and delay is
	// sufficient for most applications."
	db := store.New()
	idleHost(db, "nearby", 1730, 128)
	s := newSelector(t, db, Config{
		LocalMonitor: "local",
		GroupOf:      func(string) string { return "local" },
	})
	prog := mustProg(t, "(monitor_network_delay < 20) && (monitor_network_bw > 10)")
	res, err := s.Select(prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != 1 {
		t.Errorf("local server rejected by network constraint: %+v", res.Decisions)
	}
}

func TestMissingNetRecordRejectsSafely(t *testing.T) {
	db := store.New()
	idleHost(db, "remote", 1730, 128)
	s := newSelector(t, db, Config{
		LocalMonitor: "local",
		GroupOf:      func(string) string { return "unprobed-group" },
	})
	prog := mustProg(t, "monitor_network_bw > 1")
	res, err := s.Select(prog, 1, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != 0 {
		t.Error("server with unknown network metrics was selected")
	}
}

func TestSecurityLevelVariable(t *testing.T) {
	db := store.New()
	idleHost(db, "trusted", 1000, 128)
	idleHost(db, "sketchy", 1000, 128)
	db.PutSec(status.SecLevel{Host: "trusted", Level: 5})
	db.PutSec(status.SecLevel{Host: "sketchy", Level: 1})
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_security_level >= 3")
	res, err := s.Select(prog, 2, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"trusted"}) {
		t.Errorf("Servers = %v", res.Servers)
	}
}

func TestRankByExpression(t *testing.T) {
	// Chapter 6: "3 servers with largest memory".
	db := store.New()
	idleHost(db, "small", 1000, 128)
	idleHost(db, "large", 1000, 512)
	idleHost(db, "medium", 1000, 256)
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free > 0.5\nhost_memory_free\n")
	res, err := s.Select(prog, 2, proto.OptRankByExpr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"large", "medium"}) {
		t.Errorf("Servers = %v, want memory-ranked", res.Servers)
	}
}

func TestServicePortAppended(t *testing.T) {
	db := store.New()
	idleHost(db, "h1", 1000, 128)
	db.PutSys(status.ServerStatus{Host: "h2:7777", CPUIdle: 0.99})
	s := newSelector(t, db, Config{ServicePort: 9000})
	prog := mustProg(t, "host_cpu_free > 0.5")
	res, err := s.Select(prog, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h1:9000", "h2:7777"} // existing ports are kept
	if !reflect.DeepEqual(res.Servers, want) {
		t.Errorf("Servers = %v, want %v", res.Servers, want)
	}
}

// TestHostAddresses pins how a record's host, a user's list entry and
// a reply address relate: names, IPv4 and IPv6 with and without a
// port, IPv6 bare and in brackets, in either case. A bare IPv6
// address has no port to strip, so two of them never collide.
func TestHostAddresses(t *testing.T) {
	s := newSelector(t, store.New(), Config{ServicePort: 9000})
	for _, tc := range []struct {
		addr, host string
		hasPort    bool
		dial       string
	}{
		{"h1", "h1", false, "h1:9000"},
		{"H1.Example", "H1.Example", false, "H1.Example:9000"},
		{"h1:7777", "h1", true, "h1:7777"},
		{"10.0.0.1", "10.0.0.1", false, "10.0.0.1:9000"},
		{"10.0.0.1:7777", "10.0.0.1", true, "10.0.0.1:7777"},
		{"fe80::1", "fe80::1", false, "[fe80::1]:9000"},
		{"FE80::A", "FE80::A", false, "[FE80::A]:9000"},
		{"[fe80::1]", "fe80::1", false, "[fe80::1]:9000"},
		{"[fe80::1]:7777", "fe80::1", true, "[fe80::1]:7777"},
	} {
		if host, hasPort := splitHost(tc.addr); host != tc.host || hasPort != tc.hasPort {
			t.Errorf("splitHost(%q) = %q, %t; want %q, %t", tc.addr, host, hasPort, tc.host, tc.hasPort)
		}
		if got := s.dialAddr(tc.addr); got != tc.dial {
			t.Errorf("dialAddr(%q) = %q, want %q", tc.addr, got, tc.dial)
		}
	}
	for _, tc := range []struct {
		host, entry string
		match       bool
	}{
		{"h1", "h1", true},
		{"h1", "H1:22", true},
		{"h1", "h10", false},
		{"10.0.0.1", "10.0.0.1:9000", true},
		{"10.0.0.1", "10.0.0.10", false},
		{"fe80::1", "fe80::1", true},
		{"fe80::2", "fe80::1", false},
		{"fe80::1", "[fe80::1]:9000", true},
		{"fe80::1", "[fe80::1]", true},
		{"[fe80::1]:9000", "fe80::1", true},
		{"fe80::a", "[FE80::A]:9000", true},
		{"fe80::1", "fe80:", false},
	} {
		if got := matchHost(tc.host, []string{tc.entry}) == 0; got != tc.match {
			t.Errorf("matchHost(%q, [%q]) matched %t, want %t", tc.host, tc.entry, got, tc.match)
		}
	}
}

// TestDeniedIPv6HostDeniesOnlyItself: denying one bare IPv6 host
// leaves its neighbours selectable.
func TestDeniedIPv6HostDeniesOnlyItself(t *testing.T) {
	db := store.New()
	for _, h := range []string{"fe80::1", "fe80::2", "fe80::3"} {
		idleHost(db, h, 1000, 128)
	}
	s := newSelector(t, db, Config{ServicePort: 9000})
	res, err := s.Select(mustProg(t, "host_cpu_free > 0.5\nuser_denied_host1 = \"fe80::1\"\n"), 3, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"[fe80::2]:9000", "[fe80::3]:9000"}; !reflect.DeepEqual(res.Servers, want) {
		t.Errorf("Servers = %v, want %v", res.Servers, want)
	}
}

func TestServerNumCappedAtProtocolLimit(t *testing.T) {
	db := store.New()
	for i := 0; i < 70; i++ {
		idleHost(db, strings.Repeat("h", 1)+string(rune('0'+i/10))+string(rune('0'+i%10)), 1000, 128)
	}
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free > 0.5")
	res, err := s.Select(prog, 100, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != proto.MaxServers {
		t.Errorf("got %d servers, want the UDP cap %d", len(res.Servers), proto.MaxServers)
	}
}

func TestEvalErrorDisqualifies(t *testing.T) {
	db := store.New()
	idleHost(db, "h", 1000, 128)
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free / 0 > 1")
	res, err := s.Select(prog, 1, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != 0 {
		t.Error("server selected despite evaluation error")
	}
	if res, err = s.Explain(prog, 1, proto.OptPartialOK); err != nil || len(res.Decisions) != 1 {
		t.Fatalf("Explain: %d decisions, err %v", len(res.Decisions), err)
	}
	if res.Decisions[0].Err == nil {
		t.Error("decision carries no error")
	}
}

func TestSelectValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("New accepted nil db")
	}
	db := store.New()
	s := newSelector(t, db, Config{})
	if _, err := s.Select(mustProg(t, "1>0"), 0, 0); err == nil {
		t.Error("Select accepted n=0")
	}
}

func TestFig14Walkthrough(t *testing.T) {
	// The full introduction example: 12 servers in 4 networks with
	// delays 100/5/10/15 ms; requirement: 3 servers, ≥100 MB free
	// memory, CPU usage < 10%, delay < 20 ms, hacker.some.net (C2)
	// blacklisted. Expected winners: B2, C1, D1.
	db := store.New()
	groups := map[string]string{}
	add := func(name, network string, cpuBusy float64, memMB uint64) {
		s := sysinfo.Idle(name, 2000, memMB)
		s.CPUIdle = 1 - cpuBusy
		s.CPUUser = cpuBusy
		db.PutSys(s)
		groups[name] = network
	}
	// Network A: fine machines behind a 100 ms link.
	add("a1", "netA", 0.02, 512)
	add("a2", "netA", 0.02, 512)
	add("a3", "netA", 0.02, 512)
	// Network B: B1 busy (cpu=20%), B2 good, B3 low memory.
	add("b1", "netB", 0.20, 512)
	add("b2", "netB", 0.02, 512)
	add("b3", "netB", 0.02, 50)
	// Network C: C1 good, C2 is hacker.some.net, C3 busy.
	add("c1", "netC", 0.02, 512)
	add("hacker.some.net", "netC", 0.02, 512)
	add("c3", "netC", 0.5, 512)
	// Network D: D1 good, D2 and D3 short on memory.
	add("d1", "netD", 0.02, 512)
	add("d2", "netD", 0.02, 60)
	add("d3", "netD", 0.02, 40)

	for net, delay := range map[string]time.Duration{
		"netA": 100 * time.Millisecond,
		"netB": 5 * time.Millisecond,
		"netC": 10 * time.Millisecond,
		"netD": 15 * time.Millisecond,
	} {
		db.PutNet(status.NetMetric{From: "client", To: net, Delay: delay, Bandwidth: 100e6})
	}

	s := newSelector(t, db, Config{
		LocalMonitor: "client",
		GroupOf:      func(h string) string { return groups[h] },
	})
	prog := mustProg(t, `host_memory_free >= 100
host_cpu_user + host_cpu_system + host_cpu_nice < 0.10
monitor_network_delay < 20
user_denied_host1 = hacker.some.net
`)
	res, err := s.Select(prog, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Servers, []string{"b2", "c1", "d1"}) {
		t.Errorf("Servers = %v, want [b2 c1 d1] (Fig 1.4)", res.Servers)
	}
}

// TestInfoCacheKeepsCachingPastItsBound: a selector that has seen more
// programs than its per-program cache holds drops the table and goes on
// caching, so a requirement first met late is still resolved once.
func TestInfoCacheKeepsCachingPastItsBound(t *testing.T) {
	sel := newSelector(t, store.New(), Config{})
	for i := 0; i <= infoCacheMax; i++ {
		sel.infoFor(mustProg(t, fmt.Sprintf("host_cpu_free > %d\n", i)))
	}
	late := mustProg(t, "host_system_load1 < 1\n")
	if first := sel.infoFor(late); sel.infoFor(late) != first {
		t.Fatalf("after %d programs a new program is resolved again on every request", infoCacheMax+1)
	}
	if n := len(sel.infos); n > infoCacheMax {
		t.Fatalf("cache holds %d programs, bound %d", n, infoCacheMax)
	}
}
