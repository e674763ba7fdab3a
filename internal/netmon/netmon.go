// Package netmon implements the network monitor of §3.3.3. Each
// server group runs one monitor; monitors know their neighbours and
// probe the paths between groups for (delay, bandwidth) pairs, which
// the wizard consults for requirements like
// "(delay < 20ms) && (bandwidth > 10Mbps)".
//
// Probing is strictly sequential — the thesis warns that concurrent
// probes interfere with one another and inflate network load — and
// the interval is expected to grow with the number of peer groups,
// since a full mesh of n groups needs n×(n−1) probes.
package netmon

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"smartsock/internal/bwest"
	"smartsock/internal/loop"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// Peer is a neighbouring network monitor and the probe-able path that
// leads to it.
type Peer struct {
	// Name identifies the remote monitor (netmon-2, …).
	Name string
	// Prober measures RTTs on the path to the peer; a simnet.Path in
	// the simulated testbed or a bwest.UDPProber on a live network.
	Prober bwest.Prober
	// MTU of the local interface toward this peer; probe sizes are
	// derived from it (§3.3.2 rules).
	MTU int
}

// Config parameterises a network monitor.
type Config struct {
	// Name identifies this monitor in the records it produces.
	Name string
	// Peers are the neighbouring monitors to probe.
	Peers []Peer
	// DB receives the NetMetric records.
	DB *store.DB
	// Interval between full probe rounds. The thesis uses 2 s for a
	// few peers; it should grow with the peer count. Defaults to
	// 2 s × max(1, len(Peers)).
	Interval time.Duration
	// BandwidthRuns for the UDP-stream estimate. Defaults to 3.
	BandwidthRuns int
	// Logger receives probe failures; nil silences them.
	Logger *log.Logger
}

// Monitor probes peer paths and records network metrics.
type Monitor struct {
	cfg Config

	mu     sync.Mutex
	rounds int
}

// New validates the config and builds a monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("netmon: empty monitor name")
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("netmon: nil database")
	}
	for i, p := range cfg.Peers {
		if p.Name == "" || p.Prober == nil {
			return nil, fmt.Errorf("netmon: peer %d incomplete", i)
		}
	}
	if cfg.Interval <= 0 {
		n := len(cfg.Peers)
		if n < 1 {
			n = 1
		}
		cfg.Interval = 2 * time.Second * time.Duration(n)
	}
	if cfg.BandwidthRuns <= 0 {
		cfg.BandwidthRuns = 3
	}
	return &Monitor{cfg: cfg}, nil
}

// Rounds reports how many full probe rounds have completed.
func (m *Monitor) Rounds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rounds
}

// Run probes all peers at the configured interval until the context
// is cancelled. The first round runs immediately.
func (m *Monitor) Run(ctx context.Context) error {
	return loop.Every(ctx, m.cfg.Interval, nil, func() error {
		m.ProbeAll(ctx)
		return nil
	})
}

// ProbeAll measures every peer path once, sequentially, and stores
// the results. It returns the metrics of this round.
func (m *Monitor) ProbeAll(ctx context.Context) []status.NetMetric {
	metrics := make([]status.NetMetric, 0, len(m.cfg.Peers))
	for _, peer := range m.cfg.Peers {
		if ctx != nil && ctx.Err() != nil {
			return metrics
		}
		metric, err := m.ProbePeer(peer)
		if err != nil {
			m.logf("netmon %s: probing %s: %v", m.cfg.Name, peer.Name, err)
			continue
		}
		m.cfg.DB.PutNet(metric)
		metrics = append(metrics, metric)
	}
	m.mu.Lock()
	m.rounds++
	m.mu.Unlock()
	return metrics
}

// ProbePeer measures delay and available bandwidth to one peer.
func (m *Monitor) ProbePeer(peer Peer) (status.NetMetric, error) {
	// Delay: the minimum RTT of four small probes, halved for the
	// one-way figure users reason about ("delay < 20ms").
	delay := time.Duration(1<<62 - 1)
	for range 4 {
		if d := peer.Prober.ProbeRTT(64); d < delay {
			delay = d
		}
	}
	s1, s2 := bwest.OptimalSizes(peer.MTU)
	st, err := bwest.Estimate(peer.Prober, bwest.StreamConfig{
		S1: s1, S2: s2, Runs: m.cfg.BandwidthRuns,
	})
	if err != nil {
		return status.NetMetric{}, err
	}
	return status.NetMetric{
		From:      m.cfg.Name,
		To:        peer.Name,
		Delay:     delay / 2,
		Bandwidth: st.Avg,
	}, nil
}

func (m *Monitor) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf(format, args...)
	}
}
