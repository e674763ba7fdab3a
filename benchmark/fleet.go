package main

import (
	"fmt"
	"math"
	"math/rand"

	"smartsock/internal/proto"
	"smartsock/internal/status"
	"smartsock/internal/testbed"
)

// requirement is one request of an op stream together with the
// generator's own reading of its text, written in Go so that replies are
// checked without the parser and evaluator under test.
type requirement struct {
	text  string
	n     int
	opt   proto.Option
	ok    func(*status.ServerStatus) bool
	score func(*status.ServerStatus) float64 // nil: first-found order, unranked
	// fields are the variables the text constrains: the columns the
	// selection index keeps for it.
	fields []string
}

func memFreeMB(s *status.ServerStatus) float64 { return float64(s.MemFree) / (1 << 20) }

func speedScore(s *status.ServerStatus) float64 { return s.Bogomips * s.CPUIdle }

// stormMix is the five-text request mix the repo's storm benchmarks use
// (internal/experiments/wizardqps.go), as a fleet of applications each
// reusing its own requirement would produce.
func stormMix(n int) []requirement {
	mix := []requirement{
		{
			text: "host_cpu_bogomips > 3000\nhost_cpu_free > 0.5\nhost_memory_free > 5\nscore = host_cpu_bogomips * host_cpu_free\nscore\n",
			ok: func(s *status.ServerStatus) bool {
				return s.Bogomips > 3000 && s.CPUIdle > 0.5 && memFreeMB(s) > 5
			},
			fields: []string{"host_cpu_bogomips", "host_cpu_free", "host_memory_free"},
		},
		{
			text:   "host_cpu_bogomips > 2000\n",
			ok:     func(s *status.ServerStatus) bool { return s.Bogomips > 2000 },
			fields: []string{"host_cpu_bogomips"},
		},
		{
			text:   "host_memory_free > 50\nhost_cpu_free > 0.3\n",
			ok:     func(s *status.ServerStatus) bool { return memFreeMB(s) > 50 && s.CPUIdle > 0.3 },
			fields: []string{"host_memory_free", "host_cpu_free"},
		},
		{
			text:   "host_system_load1 < 2\nhost_cpu_bogomips > 1500\n",
			ok:     func(s *status.ServerStatus) bool { return s.Load1 < 2 && s.Bogomips > 1500 },
			fields: []string{"host_system_load1", "host_cpu_bogomips"},
		},
		{
			text:   "host_cpu_free > 0.8\nhost_memory_free > 10\n",
			ok:     func(s *status.ServerStatus) bool { return s.CPUIdle > 0.8 && memFreeMB(s) > 10 },
			fields: []string{"host_cpu_free", "host_memory_free"},
		},
	}
	for i := range mix {
		mix[i].n = n
	}
	return mix
}

// broadReq is the single text of fleet_20k_broad: about four hosts in
// five satisfy it, and the reply is the eight fastest of them.
var broadReq = requirement{
	text: "host_cpu_free > 0.1\nhost_system_load1 < 4\nhost_memory_free > 16\nscore = host_cpu_bogomips * host_cpu_free\nscore\n",
	n:    8,
	opt:  proto.OptRankByExpr,
	ok: func(s *status.ServerStatus) bool {
		return s.CPUIdle > 0.1 && s.Load1 < 4 && memFreeMB(s) > 16
	},
	score:  speedScore,
	fields: []string{"host_cpu_free", "host_system_load1", "host_memory_free"},
}

// sentinelLoad marks the one host a fresh_1k epoch must find; every other
// host's load stays below normalLoadMax.
const (
	sentinelLoad  = 50
	normalLoadMax = 4.5
)

var sentinelReq = requirement{
	text:   "host_system_load1 > 40\n",
	n:      1,
	ok:     func(s *status.ServerStatus) bool { return s.Load1 > 40 },
	fields: []string{"host_system_load1"},
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// jitter gives a host the values a probe would report next: everything
// /proc changes between scans moves, what the hardware fixes stays.
func jitter(rng *rand.Rand, s *status.ServerStatus) {
	s.Load1 = round4(rng.Float64() * normalLoadMax)
	s.Load5 = round4(rng.Float64() * normalLoadMax)
	s.Load15 = round4(rng.Float64() * normalLoadMax)
	setIdle(s, rng.Float64())
	s.MemFree = uint64(float64(s.MemTotal) * (0.3 + 0.6*rng.Float64()))
	s.MemUsed = s.MemTotal - s.MemFree
	s.DiskRReq = round4(rng.Float64() * 200)
	s.DiskWReq = round4(rng.Float64() * 100)
	s.DiskAllReq = round4(s.DiskRReq + s.DiskWReq)
	s.DiskRBlocks = round4(s.DiskRReq * 8)
	s.DiskWBlocks = round4(s.DiskWReq * 8)
	s.NetRPacketsPS = round4(rng.Float64() * 5000)
	s.NetTPacketsPS = round4(rng.Float64() * 5000)
	s.NetRBytesPS = round4(s.NetRPacketsPS * 700)
	s.NetTBytesPS = round4(s.NetTPacketsPS * 700)
}

func setIdle(s *status.ServerStatus, idle float64) {
	s.CPUIdle = round4(idle)
	busy := 1 - s.CPUIdle
	s.CPUUser = round4(busy * 0.7)
	s.CPUSystem = round4(busy * 0.25)
	s.CPUNice = round4(busy * 0.05)
}

// lanFleet is the 11 machines of Table 5.1 under the given names, with
// seeded load. Draws repeat until every text of the storm mix has at
// least five qualifying hosts, so no seed yields a short reply.
func lanFleet(rng *rand.Rand, names []string) []status.ServerStatus {
	machines := testbed.Machines()
	fleet := make([]status.ServerStatus, len(machines))
	for {
		for i, m := range machines {
			s := &fleet[i]
			*s = status.ServerStatus{Host: names[i], Bogomips: m.Bogomips, MemTotal: m.RAMMB << 20, NetIface: "eth0"}
			jitter(rng, s)
			// A LAN at rest: idle enough that every text has takers.
			setIdle(s, 0.6+0.4*rng.Float64())
			s.Load1 = round4(rng.Float64() * 1.5)
		}
		short := false
		for _, r := range stormMix(3) {
			q := 0
			for i := range fleet {
				if r.ok(&fleet[i]) {
					q++
				}
			}
			short = short || q < 5
		}
		if !short {
			return fleet
		}
	}
}

// bogomipsClasses are the processor speeds of Table 5.1; a big fleet is
// drawn from the same hardware.
var bogomipsClasses = []float64{1730.15, 3185.04, 3394.76, 3591.37, 4771.02}

// bigFleet is n seeded hosts named h00000… in sorted order.
func bigFleet(rng *rand.Rand, n int) []status.ServerStatus {
	fleet := make([]status.ServerStatus, n)
	for i := range fleet {
		s := &fleet[i]
		*s = status.ServerStatus{
			Host:     fmt.Sprintf("h%05d.fleet", i),
			Bogomips: bogomipsClasses[rng.Intn(len(bogomipsClasses))],
			MemTotal: uint64(128<<rng.Intn(4)) << 20,
			NetIface: "eth0",
		}
		jitter(rng, s)
	}
	return fleet
}

// lookupIn indexes a fleet by host name; the records stay the fleet's own.
func lookupIn(fleet []status.ServerStatus) func(string) *status.ServerStatus {
	byName := make(map[string]*status.ServerStatus, len(fleet))
	for i := range fleet {
		byName[fleet[i].Host] = &fleet[i]
	}
	return func(name string) *status.ServerStatus { return byName[name] }
}

// check compares a reply with the generator's copy of the fleet: the
// count asked for, no host twice, every host known and satisfying the
// text, and ranked replies in non-increasing score order.
func (r *requirement) check(servers []string, lookup func(string) *status.ServerStatus) error {
	if len(servers) != r.n {
		return fmt.Errorf("%d servers, want %d", len(servers), r.n)
	}
	prev := math.Inf(1)
	for i, name := range servers {
		for _, earlier := range servers[:i] {
			if earlier == name {
				return fmt.Errorf("host %s returned twice", name)
			}
		}
		s := lookup(name)
		if s == nil {
			return fmt.Errorf("unknown host %q", name)
		}
		if !r.ok(s) {
			return fmt.Errorf("host %s does not satisfy the requirement", name)
		}
		if r.score != nil {
			sc := r.score(s)
			if sc > prev {
				return fmt.Errorf("host %s ranked below a slower one", name)
			}
			prev = sc
		}
	}
	return nil
}
