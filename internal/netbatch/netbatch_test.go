package netbatch

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"testing"
	"time"

	"smartsock/internal/obs"
)

// listen binds a fresh loopback UDP socket.
func listen(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// wrap builds an endpoint over c, failing the test on error. noRaw
// then pins the portable single-datagram path even where the batched
// syscalls exist: the equivalence tests' lever.
func wrap(t *testing.T, c *net.UDPConn, o Options, noRaw bool) *Conn {
	t.Helper()
	ep, err := Wrap(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if noRaw {
		ep.raw = false
	}
	return ep
}

// drain reads from ep until want datagrams arrived or the deadline
// passes, returning payload-by-address observations.
func drain(t *testing.T, ep *Conn, want int) map[string][]string {
	t.Helper()
	got := make(map[string][]string)
	ms := NewBatch(MaxBatch, 2048)
	deadline := time.Now().Add(5 * time.Second)
	total := 0
	for total < want {
		if err := ep.udp.SetReadDeadline(deadline); err != nil {
			t.Fatal(err)
		}
		n, err := ep.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d/%d datagrams: %v", total, want, err)
		}
		for i := 0; i < n; i++ {
			key := ms[i].Addr.String()
			got[key] = append(got[key], string(ms[i].Buf))
		}
		total += n
	}
	return got
}

// TestRoundTrip pushes datagrams from a plain client through a
// batched reader, replies through a batched writer, and checks every
// payload and address survives in both directions.
func TestRoundTrip(t *testing.T) {
	for _, noRaw := range []bool{false, true} {
		name := "raw"
		if noRaw {
			name = "generic"
		}
		t.Run(name, func(t *testing.T) {
			server := listen(t)
			ep := wrap(t, server, Options{Batch: 16}, noRaw)
			client := listen(t)

			const n = 40
			for i := 0; i < n; i++ {
				if _, err := client.WriteToUDPAddrPort([]byte(fmt.Sprintf("ping-%02d", i)),
					mustAddrPort(t, server.LocalAddr())); err != nil {
					t.Fatal(err)
				}
			}
			got := drain(t, ep, n)
			clientKey := mustAddrPort(t, client.LocalAddr()).String()
			if len(got) != 1 || len(got[clientKey]) != n {
				t.Fatalf("server saw %v datagrams from %v, want %d from %s", counts(got), keys(got), n, clientKey)
			}
			sort.Strings(got[clientKey])
			for i, p := range got[clientKey] {
				if want := fmt.Sprintf("ping-%02d", i); p != want {
					t.Fatalf("payload %d = %q, want %q", i, p, want)
				}
			}

			// Reply path: one WriteBatch moves every reply.
			replies := NewBatch(n, 32)
			for i := range replies {
				replies[i].Buf = append(replies[i].Buf[:0], fmt.Sprintf("pong-%02d", i)...)
				replies[i].Addr = mustAddrPort(t, client.LocalAddr())
			}
			sent, err := ep.WriteBatch(replies)
			if err != nil || sent != n {
				t.Fatalf("WriteBatch = %d, %v, want %d, nil", sent, err, n)
			}
			buf := make([]byte, 2048)
			for i := 0; i < n; i++ {
				if err := client.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
					t.Fatal(err)
				}
				m, _, err := client.ReadFromUDPAddrPort(buf)
				if err != nil {
					t.Fatalf("client read %d: %v", i, err)
				}
				if len(buf[:m]) != 7 {
					t.Fatalf("reply %d = %q", i, buf[:m])
				}
			}
		})
	}
}

// TestGenericMatchesRaw is the fallback-path equivalence suite: the
// portable single-datagram implementation must observe byte-identical
// payloads and identical peer addresses to the batched syscalls. On
// builds without the raw path both runs take the generic branch and
// the test still pins the round-trip contract.
func TestGenericMatchesRaw(t *testing.T) {
	scenario := func(noRaw bool) (payloads []string, addrs []string) {
		server := listen(t)
		ep := wrap(t, server, Options{Batch: 8}, noRaw)
		if !noRaw && rawSupported && !ep.Batched() {
			t.Fatal("raw path requested but not armed")
		}
		client := listen(t)
		const n = 17
		for i := 0; i < n; i++ {
			if _, err := client.WriteToUDPAddrPort([]byte(fmt.Sprintf("d-%03d", i)),
				mustAddrPort(t, server.LocalAddr())); err != nil {
				t.Fatal(err)
			}
		}
		got := drain(t, ep, n)
		for addr, ps := range got {
			sort.Strings(ps)
			payloads = append(payloads, ps...)
			for range ps {
				addrs = append(addrs, addr)
			}
		}
		return payloads, addrs
	}
	rawP, rawA := scenario(false)
	genP, genA := scenario(true)
	if len(rawP) != len(genP) {
		t.Fatalf("raw saw %d datagrams, generic %d", len(rawP), len(genP))
	}
	for i := range rawP {
		if rawP[i] != genP[i] {
			t.Fatalf("payload %d: raw %q != generic %q", i, rawP[i], genP[i])
		}
	}
	// Ports differ between the two scenarios' clients; the address
	// *family and host* must match (both unmapped loopback).
	for i := range rawA {
		ra, ga := mustParse(t, rawA[i]), mustParse(t, genA[i])
		if ra.Addr() != ga.Addr() {
			t.Fatalf("addr %d: raw %v != generic %v", i, ra.Addr(), ga.Addr())
		}
	}
}

// TestConnectedSocket exercises the dialled-client mode used by the
// windowed storm benchmark: WriteBatch with invalid Addrs sends to
// the connected peer, ReadBatch receives the replies.
func TestConnectedSocket(t *testing.T) {
	server := listen(t)
	sep := wrap(t, server, Options{Batch: 8}, false)
	raddr, err := net.ResolveUDPAddr("udp", server.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	clientUDP, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer clientUDP.Close()
	cep := wrap(t, clientUDP, Options{Batch: 8}, false)

	out := NewBatch(5, 16)
	for i := range out {
		out[i].Buf = append(out[i].Buf[:0], fmt.Sprintf("c-%d", i)...)
		out[i].Addr = netip.AddrPort{} // connected: no destination
	}
	if sent, err := cep.WriteBatch(out); err != nil || sent != 5 {
		t.Fatalf("client WriteBatch = %d, %v", sent, err)
	}
	got := drain(t, sep, 5)
	var from string
	for addr := range got {
		from = addr
	}
	if len(got[from]) != 5 {
		t.Fatalf("server got %v", counts(got))
	}
	// Echo back through the server's batched writer and read the
	// replies on the connected client's batched reader.
	back := NewBatch(5, 16)
	for i := range back {
		back[i].Buf = append(back[i].Buf[:0], fmt.Sprintf("s-%d", i)...)
		back[i].Addr = mustParse(t, from)
	}
	if sent, err := sep.WriteBatch(back); err != nil || sent != 5 {
		t.Fatalf("server WriteBatch = %d, %v", sent, err)
	}
	in := NewBatch(8, 64)
	total := 0
	for total < 5 {
		if err := clientUDP.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, err := cep.ReadBatch(in)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
}

// TestListenShards pins the sharding contract: on Linux every shard
// binds the same port and the union of shard reads sees every
// datagram; elsewhere the helper degrades to a single socket and
// counts the fallback.
func TestListenShards(t *testing.T) {
	reg := obs.NewRegistry()
	shards, err := ListenShards("127.0.0.1:0", 4, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range shards {
			_ = s.Close()
		}
	}()
	if runtime.GOOS != "linux" {
		if len(shards) != 1 {
			t.Fatalf("portable ListenShards returned %d sockets, want 1", len(shards))
		}
		if got := reg.Snapshot().Counters["netbatch_fallback"]; got == 0 {
			t.Fatal("portable shard degradation not counted in netbatch_fallback")
		}
		return
	}
	if len(shards) != 4 {
		t.Fatalf("ListenShards returned %d sockets, want 4", len(shards))
	}
	port := mustAddrPort(t, shards[0].LocalAddr()).Port()
	for i, s := range shards {
		if p := mustAddrPort(t, s.LocalAddr()).Port(); p != port {
			t.Fatalf("shard %d bound port %d, want %d", i, p, port)
		}
	}

	// Many distinct client sockets so the kernel's flow hash has
	// something to spread; every datagram must land on some shard.
	const clients, perClient = 32, 4
	for c := 0; c < clients; c++ {
		conn := listen(t)
		for i := 0; i < perClient; i++ {
			if _, err := conn.WriteToUDPAddrPort([]byte(fmt.Sprintf("c%02d-%d", c, i)),
				mustAddrPort(t, shards[0].LocalAddr())); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen := 0
	ms := NewBatch(MaxBatch, 256)
	for _, s := range shards {
		ep := wrap(t, s, Options{Batch: 16, Obs: reg}, false)
		for {
			if err := s.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			n, err := ep.ReadBatch(ms)
			if err != nil {
				break // deadline: this shard is drained
			}
			seen += n
		}
	}
	if want := clients * perClient; seen != want {
		t.Fatalf("shards saw %d datagrams, want %d", seen, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["netbatch_rx_syscalls"] == 0 {
		t.Fatal("netbatch_rx_syscalls never counted")
	}
	if snap.Counters["netbatch_fallback"] != 0 {
		t.Fatalf("netbatch_fallback = %d on the batched build", snap.Counters["netbatch_fallback"])
	}
}

// TestBatchClamp pins the Options normalisation.
func TestBatchClamp(t *testing.T) {
	server := listen(t)
	ep := wrap(t, server, Options{Batch: MaxBatch + 100}, false)
	if ep.Batch() != MaxBatch {
		t.Fatalf("Batch() = %d, want clamp to %d", ep.Batch(), MaxBatch)
	}
	ep1 := wrap(t, listen(t), Options{Batch: 0}, false)
	if ep1.Batch() != 1 || ep1.Batched() {
		t.Fatalf("Batch 0 → (%d, batched=%v), want single-datagram mode", ep1.Batch(), ep1.Batched())
	}
}

func mustAddrPort(t *testing.T, a net.Addr) netip.AddrPort {
	t.Helper()
	ap, err := netip.ParseAddrPort(a.String())
	if err != nil {
		t.Fatal(err)
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func mustParse(t *testing.T, s string) netip.AddrPort {
	t.Helper()
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		t.Fatal(err)
	}
	return ap
}

func counts(m map[string][]string) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = len(v)
	}
	return out
}

func keys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestHandoffTransfersBuffer(t *testing.T) {
	ring := Message{
		Buf:  []byte("datagram")[:8],
		Addr: netip.MustParseAddrPort("10.0.0.1:99"),
	}
	orig := &ring.Buf[0]
	fresh := make([]byte, 4, 64)

	out := Handoff(&ring, fresh)

	// The caller got the received datagram: same backing array, same
	// length reslice, same source.
	if &out.Buf[0] != orig || string(out.Buf) != "datagram" {
		t.Fatalf("handoff did not transfer the received buffer")
	}
	if out.Addr != netip.MustParseAddrPort("10.0.0.1:99") {
		t.Fatalf("handoff lost the source address: %v", out.Addr)
	}
	// The ring slot is ready for the next read: fresh buffer at full
	// capacity, address cleared.
	if &ring.Buf[0] != &fresh[0] || len(ring.Buf) != cap(fresh) {
		t.Fatalf("ring slot not reset: len %d, cap %d", len(ring.Buf), cap(fresh))
	}
	if ring.Addr.IsValid() {
		t.Fatalf("ring slot address not cleared: %v", ring.Addr)
	}
}

// TestBatchedRoundTripAllocatesNothing: a WriteBatch from one batched
// endpoint plus the ReadBatch that takes its datagrams on another
// allocates nothing — the syscall callbacks are built at Wrap time, not
// per call as closures whose captured results escape.
func TestBatchedRoundTripAllocatesNothing(t *testing.T) {
	a, b := listen(t), listen(t)
	tx := wrap(t, a, Options{Batch: 32}, false)
	rx := wrap(t, b, Options{Batch: 32}, false)
	if !tx.Batched() || !rx.Batched() {
		t.Skip("no batched syscalls on this platform")
	}
	if err := b.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	out := NewBatch(4, 32)
	for i := range out {
		out[i].Buf = append(out[i].Buf[:0], fmt.Sprintf("ping-%d", i)...)
		out[i].Addr = mustAddrPort(t, b.LocalAddr())
	}
	in := NewBatch(32, 2048)
	var sent, got int
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if sent, err = tx.WriteBatch(out); err != nil || sent != len(out) {
			return
		}
		for got = 0; got < sent && err == nil; {
			var n int
			n, err = rx.ReadBatch(in)
			got += n
		}
	})
	if err != nil || sent != len(out) || got != sent {
		t.Fatalf("round: sent %d, received %d, err %v", sent, got, err)
	}
	if allocs != 0 {
		t.Errorf("a batched write+read round allocates %v objects, want 0", allocs)
	}
}
