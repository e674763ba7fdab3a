// Package taskdiv implements the "task division module" of the
// thesis's future work (Ch. 6): given a characterisation of the task,
// it derives the server requirement automatically — "the Smart TCP
// socket library can perform better if the task division module is
// intelligent enough to automatically decide the proper server
// requirement for each task".
//
// The requirement generator maps a TaskProfile (how CPU-, memory- and
// data-hungry the job is) to meta-language text the wizard accepts.
// Once servers are chosen, matmul and massd share the work through
// their self-balancing pull queues.
package taskdiv

import (
	"fmt"
	"strings"

	"smartsock/internal/reqlang"
)

// Intensity grades how much a task leans on a resource.
type Intensity int

const (
	// None places no requirement on the resource.
	None Intensity = iota
	// Light requires the resource to be mostly available.
	Light
	// Heavy requires the resource to be nearly dedicated.
	Heavy
)

func (i Intensity) String() string {
	switch i {
	case None:
		return "none"
	case Light:
		return "light"
	case Heavy:
		return "heavy"
	}
	return fmt.Sprintf("Intensity(%d)", int(i))
}

// TaskProfile characterises a job the way §3.2.1 groups applications:
// CPU bound, memory bound, or IO bound — possibly several at once.
type TaskProfile struct {
	// CPU demand. Light wants cpu_free ≥ 0.5 and load1 < 1; Heavy
	// wants cpu_free ≥ 0.9 and load1 < 0.5 (the thresholds the
	// thesis's own experiments use).
	CPU Intensity
	// MemoryMB is the working set per server in megabytes; 0 places
	// no memory requirement.
	MemoryMB uint64
	// DiskIO demand: Light caps write activity, Heavy wants a quiet
	// disk.
	DiskIO Intensity
	// NetworkMbps is the per-server path bandwidth the task needs
	// (massd-style); 0 places no network requirement.
	NetworkMbps float64
	// MaxDelayMS bounds the one-way path delay; 0 means no bound.
	MaxDelayMS float64
	// MinSecurityLevel, when positive, requires cleared hosts.
	MinSecurityLevel int
	// DeniedHosts and PreferredHosts populate the user-side slots
	// (at most 5 each, Appendix B.2).
	DeniedHosts    []string
	PreferredHosts []string
}

// Requirement renders the profile as meta-language text. The output
// always parses; GenerateRequirement is the checked variant.
func (p TaskProfile) Requirement() string {
	var b strings.Builder
	b.WriteString("# generated by taskdiv\n")
	switch p.CPU {
	case Light:
		b.WriteString("host_cpu_free >= 0.5\n")
		b.WriteString("host_system_load1 < 1\n")
	case Heavy:
		b.WriteString("host_cpu_free >= 0.9\n")
		b.WriteString("host_system_load1 < 0.5\n")
	}
	if p.MemoryMB > 0 {
		fmt.Fprintf(&b, "host_memory_free > %d\n", p.MemoryMB)
	}
	switch p.DiskIO {
	case Light:
		b.WriteString("host_disk_wblocks < 5000\n")
	case Heavy:
		b.WriteString("host_disk_allreq < 50\n")
	}
	if p.NetworkMbps > 0 {
		fmt.Fprintf(&b, "monitor_network_bw > %g\n", p.NetworkMbps)
	}
	if p.MaxDelayMS > 0 {
		fmt.Fprintf(&b, "monitor_network_delay < %g\n", p.MaxDelayMS)
	}
	if p.MinSecurityLevel > 0 {
		fmt.Fprintf(&b, "host_security_level >= %d\n", p.MinSecurityLevel)
	}
	for i, h := range p.DeniedHosts {
		if i == 5 {
			break // Appendix B.2: five slots
		}
		fmt.Fprintf(&b, "user_denied_host%d = %s\n", i+1, quoteHost(h))
	}
	for i, h := range p.PreferredHosts {
		if i == 5 {
			break
		}
		fmt.Fprintf(&b, "user_preferred_host%d = %s\n", i+1, quoteHost(h))
	}
	return b.String()
}

// GenerateRequirement renders and validates the profile.
func (p TaskProfile) GenerateRequirement() (string, error) {
	text := p.Requirement()
	if _, err := reqlang.Parse(text); err != nil {
		return "", fmt.Errorf("taskdiv: generated requirement does not parse: %w", err)
	}
	return text, nil
}

// quoteHost protects names the bare-word grammar cannot carry
// (hyphens outside dotted names, spaces).
func quoteHost(h string) string {
	if strings.ContainsAny(h, "- ") && !strings.Contains(h, ".") {
		return `"` + h + `"`
	}
	return h
}
