package core

import (
	"strings"
	"testing"

	"smartsock/internal/proto"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
)

func TestExplainCoversEveryOutcome(t *testing.T) {
	db := store.New()
	idleHost(db, "winner", 4771, 512)
	idleHost(db, "spare", 4771, 512)
	idleHost(db, "weak", 1000, 512)
	idleHost(db, "banned", 4771, 512)
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_bogomips > 4000\nuser_denied_host1 = banned\n")
	res, err := s.Explain(prog, 1, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain(prog)
	for _, want := range []string{
		"winner", "SELECTED",
		"spare", "qualified but not needed",
		"weak", "fails line 1: host_cpu_bogomips > 4000",
		"banned", "blacklisted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainShortfallAndErrors(t *testing.T) {
	db := store.New()
	idleHost(db, "broken", 1000, 512)
	s := newSelector(t, db, Config{})
	prog := mustProg(t, "host_cpu_free / 0 > 1")
	res, err := s.Explain(prog, 2, proto.OptPartialOK)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain(prog)
	if !strings.Contains(out, "requirement error") {
		t.Errorf("Explain missing eval error:\n%s", out)
	}
	if !strings.Contains(out, "could not be found") {
		t.Errorf("Explain missing shortfall note:\n%s", out)
	}
}

func TestExplainPreferredAndScore(t *testing.T) {
	db := store.New()
	idleHost(db, "fave", 1000, 512)
	idleHost(db, "big", 1000, 1024)
	s := newSelector(t, db, Config{})

	prog := mustProg(t, "host_cpu_free > 0.5\nuser_preferred_host1 = fave\n")
	res, err := s.Explain(prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Explain(prog); !strings.Contains(out, "SELECTED (user-preferred)") {
		t.Errorf("preferred selection not labelled:\n%s", out)
	}

	prog = mustProg(t, "host_cpu_free > 0.5\nhost_memory_free\n")
	res, err = s.Explain(prog, 1, proto.OptRankByExpr)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Explain(prog); !strings.Contains(out, "SELECTED (score") {
		t.Errorf("score selection not labelled:\n%s", out)
	}
}

func TestExplainMatchesPortSuffixedAddresses(t *testing.T) {
	db := store.New()
	db.PutSys(sysinfo.Idle("srv", 1000, 128))
	s := newSelector(t, db, Config{ServicePort: 9000})
	prog := mustProg(t, "1 > 0")
	res, err := s.Explain(prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Explain(prog); !strings.Contains(out, "SELECTED") {
		t.Errorf("port-suffixed address broke selection marking:\n%s", out)
	}
}
