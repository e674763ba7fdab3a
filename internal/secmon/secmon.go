// Package secmon implements the security monitor of §3.4. Security
// scanning proper is out of the thesis's scope; the monitor reads
// per-host clearance levels from a security log and keeps the secdb
// section of the status database current, behind a pluggable Agent
// interface so that real scanners (nmap-style probes, registry
// scanners, Cisco-NAC-style trust agents) can be dropped in without
// touching the rest of the system.
package secmon

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"smartsock/internal/loop"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// Agent produces security reports. Implementations may scan the
// network, read logs, or consult third-party software (§3.4.2).
type Agent interface {
	Scan() ([]status.SecLevel, error)
}

// StaticAgent returns a fixed set of levels — useful for simulated
// testbeds and as the simplest possible third-party plug-in.
type StaticAgent []status.SecLevel

// Scan returns the configured levels.
func (a StaticAgent) Scan() ([]status.SecLevel, error) {
	out := make([]status.SecLevel, len(a))
	copy(out, a)
	return out, nil
}

// LogAgent reads the dummy security log format of §3.4.1: one
// "host level" pair per line, '#' comments allowed. The file is
// re-read on every scan so operators can edit it live.
type LogAgent struct {
	Path string
}

// Scan parses the security log.
func (a LogAgent) Scan() ([]status.SecLevel, error) {
	f, err := os.Open(a.Path)
	if err != nil {
		return nil, fmt.Errorf("secmon: %w", err)
	}
	defer f.Close()
	var out []status.SecLevel
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("secmon: %s:%d: want \"host level\", got %q", a.Path, lineNo, line)
		}
		level, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("secmon: %s:%d: bad level %q: %v", a.Path, lineNo, fields[1], err)
		}
		out = append(out, status.SecLevel{Host: fields[0], Level: level})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("secmon: %w", err)
	}
	return out, nil
}

// Config parameterises the security monitor.
type Config struct {
	// Agent supplies the reports.
	Agent Agent
	// DB receives them.
	DB *store.DB
	// Interval between scans. Defaults to 30 s — security levels
	// change far more slowly than load.
	Interval time.Duration
	// Logger receives scan failures; nil silences them.
	Logger *log.Logger
}

// Monitor keeps the secdb current.
type Monitor struct {
	cfg Config
}

// New validates the config and builds a monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.Agent == nil {
		return nil, fmt.Errorf("secmon: nil agent")
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("secmon: nil database")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	return &Monitor{cfg: cfg}, nil
}

// ScanOnce runs one scan-and-store cycle.
func (m *Monitor) ScanOnce() error {
	levels, err := m.cfg.Agent.Scan()
	if err != nil {
		return err
	}
	for _, l := range levels {
		m.cfg.DB.PutSec(l)
	}
	return nil
}

// Run scans at the configured interval until the context is
// cancelled. The first scan runs immediately.
func (m *Monitor) Run(ctx context.Context) error {
	return loop.Every(ctx, m.cfg.Interval, nil, func() error {
		if err := m.ScanOnce(); err != nil && m.cfg.Logger != nil {
			m.cfg.Logger.Printf("secmon: %v", err)
		}
		return nil
	})
}
