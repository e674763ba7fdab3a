package main

import (
	"fmt"
	"net"
	"net/netip"
	"time"
)

// The box the driver measures on is a few vCPUs of a shared host whose speed
// moves in steps that last seconds to minutes: the same op stream ran at
// 5.0k, 8.5k and 10.4k Connects per second inside one hour, mostly with no
// steal to show for it, and whole 20 s runs fall into one level. No
// statistic taken within a run (median window, quiet quarter, best window)
// repeats across such runs: wall-clock rates of one commit spread 27–45 %
// over ten runs. What does repeat is the ratio between the workload and a
// fixed piece of work measured beside it, a few milliseconds apart: the
// levels slow both.
//
// The reference is one 64-byte UDP datagram sent and received between two
// loopback sockets the harness owns, on the generator's goroutine: a system
// call pair through the kernel's socket, routing and memory paths, none of
// the program's code, so no change to the program moves it. Of four kernels
// tried (integer arithmetic, random walks over 256 KB and 8 MB, this one)
// it was the one whose cost tracked every workload's: dividing by it
// brought the range of six runs of each workload, taken over fast and slow
// levels, from 31–39 % to 2–6 % (integer arithmetic did not slow at all;
// README.md has the table).
//
// So the two timing figures of the gate are stated in reference seconds:
// the seconds the work would have taken on a host where the reference trip
// costs refTripNS. On such a host they are wall-clock figures.
const (
	refTripNS = 2000                  // a reference trip on the host the figures are stated for
	refTrips  = 100                   // trips per sample
	refEvery  = 10 * time.Millisecond // one sample is due for every this much work since the last
	refMaxDue = 20                    // samples taken at once at most, after a long op
	refBytes  = 64
)

// hostRef runs the reference kernel between a workload's ops.
type hostRef struct {
	a, b *net.UDPConn
	to   netip.AddrPort
	buf  [refBytes]byte
	last time.Time
	err  error // the first failure; a run with one is not correct
}

func newHostRef() (*hostRef, error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return nil, err
	}
	b, err := net.ListenUDP("udp4", lo)
	if err != nil {
		_ = a.Close()
		return nil, err
	}
	return &hostRef{a: a, b: b, to: b.LocalAddr().(*net.UDPAddr).AddrPort()}, nil
}

func (h *hostRef) close() {
	_ = h.a.Close()
	_ = h.b.Close()
}

// refCost is what the reference kernel took over some stretch of work.
type refCost struct {
	dt    time.Duration
	trips int
}

func (c *refCost) add(o refCost) {
	c.dt += o.dt
	c.trips += o.trips
}

// speed is the host's speed over the stretch relative to the reference
// host's: above 1 when trips were cheaper than refTripNS. 1 where nothing
// was sampled.
func (c refCost) speed() float64 {
	if c.trips == 0 || c.dt <= 0 {
		return 1
	}
	return refTripNS * float64(c.trips) / float64(c.dt)
}

// tripNS is the mean cost of a trip over the stretch.
func (c refCost) tripNS() float64 {
	if c.trips == 0 {
		return 0
	}
	return float64(c.dt) / float64(c.trips)
}

// start begins a stretch of work: the first sample is due refEvery from now.
func (h *hostRef) start(now time.Time) { h.last = now }

// pace is called after every op with the current time. For every refEvery
// that has passed since the last sample it runs refTrips trips and adds
// them to acc: a workload of 50 ms ops is sampled as densely as one of 100
// µs ops, about a fortieth of the time. It returns the time after, so the
// caller's clock skips the samples.
func (h *hostRef) pace(now time.Time, acc *refCost) time.Time {
	due := int(min(now.Sub(h.last)/refEvery, refMaxDue))
	if due == 0 || h.err != nil {
		return now
	}
	trips := due * refTrips
	err := h.b.SetReadDeadline(now.Add(time.Second))
	for i := 0; i < trips && err == nil; i++ {
		if _, err = h.a.WriteToUDPAddrPort(h.buf[:], h.to); err == nil {
			_, _, err = h.b.ReadFromUDPAddrPort(h.buf[:])
		}
	}
	if err != nil {
		h.err = fmt.Errorf("host reference: %w", err)
		return now
	}
	h.last = time.Now()
	acc.add(refCost{h.last.Sub(now), trips})
	return h.last
}
