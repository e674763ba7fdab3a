package taskdiv

import (
	"strings"
	"testing"
	"testing/quick"

	"smartsock/internal/reqlang"
	"smartsock/internal/reqlang/reqtest"
	"smartsock/internal/status"
	"smartsock/internal/sysinfo"
)

func TestRequirementForCPUHeavyTask(t *testing.T) {
	p := TaskProfile{CPU: Heavy, MemoryMB: 150}
	text, err := p.GenerateRequirement()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"host_cpu_free >= 0.9",
		"host_system_load1 < 0.5",
		"host_memory_free > 150",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("requirement missing %q:\n%s", want, text)
		}
	}
	// The generated text selects the right servers.
	prog, err := reqlang.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	idle := sysinfo.Idle("idlebox", 4000, 512)
	if !prog.EvalFrom(reqtest.Env(prog, idle.Vars()), 0).Qualified {
		t.Error("idle 512 MB box rejected by generated requirement")
	}
	busy := sysinfo.Idle("busybox", 4000, 512)
	busy.CPUIdle = 0.3
	busy.Load1 = 2
	if prog.EvalFrom(reqtest.Env(prog, busy.Vars()), 0).Qualified {
		t.Error("busy box accepted by generated CPU-heavy requirement")
	}
}

func TestRequirementForDataTask(t *testing.T) {
	p := TaskProfile{NetworkMbps: 6, MaxDelayMS: 20, DiskIO: Heavy, MinSecurityLevel: 3}
	text, err := p.GenerateRequirement()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"monitor_network_bw > 6",
		"monitor_network_delay < 20",
		"host_disk_allreq < 50",
		"host_security_level >= 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("requirement missing %q:\n%s", want, text)
		}
	}
}

func TestRequirementHostSlots(t *testing.T) {
	p := TaskProfile{
		DeniedHosts:    []string{"hacker.some.net", "titan-x", "a", "b", "c", "overflow"},
		PreferredHosts: []string{"sagit.comp.nus.edu.sg"},
	}
	text, err := p.GenerateRequirement()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `user_denied_host2 = "titan-x"`) {
		t.Errorf("hyphenated bare host not quoted:\n%s", text)
	}
	if strings.Contains(text, "overflow") {
		t.Error("more than 5 denied slots emitted (Appendix B.2 defines five)")
	}
	if !strings.Contains(text, "user_preferred_host1 = sagit.comp.nus.edu.sg") {
		t.Errorf("preferred host missing:\n%s", text)
	}
}

func TestEmptyProfileQualifiesEverything(t *testing.T) {
	text, err := TaskProfile{}.GenerateRequirement()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := reqlang.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range prog.Stmts {
		if st.Logical {
			t.Errorf("empty profile emitted constraint %q:\n%s", st.Src, text)
		}
	}
}

func TestPropertyGeneratedRequirementsAlwaysParse(t *testing.T) {
	prop := func(cpu, disk uint8, memMB uint16, netX, delayX uint8, sec int8) bool {
		p := TaskProfile{
			CPU:              Intensity(cpu % 3),
			DiskIO:           Intensity(disk % 3),
			MemoryMB:         uint64(memMB),
			NetworkMbps:      float64(netX%20) / 2,
			MaxDelayMS:       float64(delayX % 100),
			MinSecurityLevel: int(sec),
			DeniedHosts:      []string{"some-host", "other.host.example"},
		}
		_, err := p.GenerateRequirement()
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func servers(speeds ...float64) []status.ServerStatus {
	out := make([]status.ServerStatus, len(speeds))
	for i, sp := range speeds {
		out[i] = sysinfo.Idle(string(rune('a'+i)), sp, 256)
	}
	return out
}

func TestDivideProportionalToCapability(t *testing.T) {
	p := TaskProfile{CPU: Heavy}
	shares, err := Divide(p, 100, servers(4000, 2000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range shares {
		total += s.Units
	}
	if total != 100 {
		t.Fatalf("assigned %d units, want 100", total)
	}
	if shares[0].Units <= shares[1].Units {
		t.Errorf("fast server got %d units, slow got %d", shares[0].Units, shares[1].Units)
	}
	// 4000 vs 2000+2000: the fast box should take about half.
	if shares[0].Units < 40 || shares[0].Units > 60 {
		t.Errorf("fast share = %d, want ≈50", shares[0].Units)
	}
}

func TestDivideEveryoneParticipates(t *testing.T) {
	p := TaskProfile{CPU: Heavy}
	// One overwhelming server; with units ≥ servers, nobody gets zero.
	shares, err := Divide(p, 10, servers(100000, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shares {
		if s.Units == 0 {
			t.Errorf("server %s got no work", s.Host)
		}
	}
}

func TestDivideAccountsForLoad(t *testing.T) {
	p := TaskProfile{CPU: Heavy}
	srv := servers(3000, 3000)
	srv[1].CPUIdle = 0.25 // second box is 75% busy
	shares, err := Divide(p, 100, srv)
	if err != nil {
		t.Fatal(err)
	}
	if shares[0].Units <= shares[1].Units*2 {
		t.Errorf("idle box got %d, busy box %d; want a large skew", shares[0].Units, shares[1].Units)
	}
}

func TestDivideValidation(t *testing.T) {
	if _, err := Divide(TaskProfile{}, 0, servers(1)); err == nil {
		t.Error("accepted zero units")
	}
	if _, err := Divide(TaskProfile{}, 10, nil); err == nil {
		t.Error("accepted no servers")
	}
}

func TestPropertyDivideConservesUnits(t *testing.T) {
	prop := func(unitsRaw uint16, nRaw uint8, seed uint8) bool {
		n := int(nRaw%6) + 1
		units := int(unitsRaw%1000) + n // units ≥ servers
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = float64(1000 + int(seed)*i*37%5000)
		}
		shares, err := Divide(TaskProfile{CPU: Light}, units, servers(speeds...))
		if err != nil {
			return false
		}
		total := 0
		for _, s := range shares {
			if s.Units <= 0 {
				return false
			}
			total += s.Units
		}
		return total == units
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIntensityString(t *testing.T) {
	if None.String() != "none" || Light.String() != "light" || Heavy.String() != "heavy" {
		t.Error("Intensity strings wrong")
	}
	if !strings.Contains(Intensity(9).String(), "9") {
		t.Error("unknown intensity not reported")
	}
}
