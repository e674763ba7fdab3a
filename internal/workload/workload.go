// Package workload generates server load, standing in for SuperPI —
// the memory- and CPU-hungry π calculator the thesis runs to create
// busy servers (Table 4.1, §5.3.1 experiment 4: "the Super_PI program
// will occupy 150 MBytes of memory and CPU usage will vary from 0% to
// 100%. The system load value will remain above 1").
//
// Apply programs a synthetic status source with the load figures a
// SuperPI run would produce, for the simulated testbed.
package workload

import (
	"smartsock/internal/status"
	"smartsock/internal/sysinfo"
)

// Load describes a workload's footprint.
type Load struct {
	// MemoryBytes held by the program (SuperPI with parameter 25 takes
	// ≈150 MB).
	MemoryBytes uint64
	// CPUBusy is the fraction of CPU consumed (0..1).
	CPUBusy float64
	// LoadAvg is the contribution to the 1-minute load average
	// (SuperPI keeps it above 1).
	LoadAvg float64
}

// SuperPI returns the footprint of the thesis's workload generator
// with parameter 25.
func SuperPI() Load {
	return Load{
		MemoryBytes: 150 * 1024 * 1024,
		CPUBusy:     0.95,
		LoadAvg:     1.2,
	}
}

// Apply adds the load to a synthetic host's reported status and
// returns a release function that removes it again — starting and
// stopping SuperPI on a virtual machine. Memory is clamped so a small
// host never reports negative free memory (it would swap instead).
func Apply(src *sysinfo.Synthetic, l Load) (release func()) {
	var clampedMem uint64
	src.Update(func(s *status.ServerStatus) {
		clampedMem = l.MemoryBytes
		if clampedMem > s.MemFree {
			clampedMem = s.MemFree
		}
		s.MemFree -= clampedMem
		s.MemUsed += clampedMem
		s.Load1 += l.LoadAvg
		s.Load5 += l.LoadAvg * 0.8
		s.Load15 += l.LoadAvg * 0.5
		busy := l.CPUBusy
		if busy > s.CPUIdle {
			busy = s.CPUIdle
		}
		s.CPUIdle -= busy
		s.CPUUser += busy
	})
	var released bool
	return func() {
		if released {
			return
		}
		released = true
		src.Update(func(s *status.ServerStatus) {
			s.MemFree += clampedMem
			s.MemUsed -= clampedMem
			s.Load1 -= l.LoadAvg
			s.Load5 -= l.LoadAvg * 0.8
			s.Load15 -= l.LoadAvg * 0.5
			busy := l.CPUBusy
			if s.CPUUser < busy {
				busy = s.CPUUser
			}
			s.CPUUser -= busy
			s.CPUIdle += busy
		})
	}
}
