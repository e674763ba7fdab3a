package smartsock_test

// One benchmark per table and figure in the thesis's evaluation
// (regenerating the experiment in Quick mode), plus ablation
// micro-benchmarks for the design choices DESIGN.md calls out:
// string-vs-binary status encoding, UDP-vs-TCP probe reporting,
// centralized-vs-distributed transport, probe-size rules, and the
// requirement language's parse/eval costs.
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"smartsock/internal/bwest"
	"smartsock/internal/core"
	"smartsock/internal/experiments"
	"smartsock/internal/monitor"
	"smartsock/internal/obs"
	"smartsock/internal/probe"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/reqlang/reqtest"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
	"smartsock/internal/testbed"
	"smartsock/internal/transport"
)

// benchExperiment regenerates one paper table/figure per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Run(id, experiments.Options{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig33RTTSweep(b *testing.B)       { benchExperiment(b, "fig3.3") }
func BenchmarkFig34RTTSweep(b *testing.B)       { benchExperiment(b, "fig3.4") }
func BenchmarkFig35RTTSweep(b *testing.B)       { benchExperiment(b, "fig3.5") }
func BenchmarkFig36SixPaths(b *testing.B)       { benchExperiment(b, "fig3.6") }
func BenchmarkTable33Bandwidth(b *testing.B)    { benchExperiment(b, "table3.3") }
func BenchmarkTable34NetmonMesh(b *testing.B)   { benchExperiment(b, "table3.4") }
func BenchmarkTable41SuperPI(b *testing.B)      { benchExperiment(b, "table4.1") }
func BenchmarkTable52Resources(b *testing.B)    { benchExperiment(b, "table5.2") }
func BenchmarkFig52MatrixPerHost(b *testing.B)  { benchExperiment(b, "fig5.2") }
func BenchmarkTable53Matrix2v2(b *testing.B)    { benchExperiment(b, "table5.3") }
func BenchmarkTable54Matrix4v4(b *testing.B)    { benchExperiment(b, "table5.4") }
func BenchmarkTable55Matrix6v6(b *testing.B)    { benchExperiment(b, "table5.5") }
func BenchmarkTable56MatrixLoaded(b *testing.B) { benchExperiment(b, "table5.6") }
func BenchmarkFig53ShaperMassd(b *testing.B)    { benchExperiment(b, "fig5.3") }
func BenchmarkTable57Massd1v1(b *testing.B)     { benchExperiment(b, "table5.7") }
func BenchmarkTable58Massd2v2(b *testing.B)     { benchExperiment(b, "table5.8") }
func BenchmarkTable59Massd3v3(b *testing.B)     { benchExperiment(b, "table5.9") }

// --- Ablation: string vs binary status encoding (§3.2.1 vs §3.5.1) ---

func sampleStatusRecord() status.ServerStatus {
	s := sysinfo.Idle("dalmatian.lab.example", 4771.02, 512)
	s.Load1, s.Load5, s.Load15 = 0.42, 0.31, 0.18
	s.NetRBytesPS, s.NetTBytesPS = 200000, 100000
	return s
}

func BenchmarkStatusEncodeASCII(b *testing.B) {
	s := sampleStatusRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		status.EncodeReport(&s)
	}
}

func BenchmarkStatusDecodeASCII(b *testing.B) {
	s := sampleStatusRecord()
	enc := status.EncodeReport(&s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := status.DecodeReport(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatusEncodeBinaryBatch(b *testing.B) {
	recs := make([]status.ServerStatus, 11)
	for i := range recs {
		recs[i] = sampleStatusRecord()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		status.MarshalSystemBatch(recs)
	}
}

func BenchmarkStatusDecodeBinaryBatch(b *testing.B) {
	recs := make([]status.ServerStatus, 11)
	for i := range recs {
		recs[i] = sampleStatusRecord()
	}
	enc := status.MarshalSystemBatch(recs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := status.UnmarshalSystemBatch(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: requirement language parse and eval cost ---

const benchRequirement = `host_system_load1 < 1
host_memory_used <= 250*1024*1024
host_cpu_free >= 0.9
host_network_tbytesps < 1024*1024
(monitor_network_delay < 20) && (monitor_network_bw > 10)
user_denied_host1 = 137.132.90.182
user_preferred_host1 = sagit.ddns.comp.nus.edu.sg
`

func BenchmarkReqlangParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reqlang.Parse(benchRequirement); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReqlangEval(b *testing.B) {
	prog, err := reqlang.Parse(benchRequirement)
	if err != nil {
		b.Fatal(err)
	}
	s := sampleStatusRecord()
	params := s.Vars()
	params["monitor_network_delay"] = 5
	params["monitor_network_bw"] = 95
	env := reqtest.Env(prog, params)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := prog.Eval(env)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// --- Ablation: wizard request throughput over live UDP ---

func BenchmarkWizardRequestReply(b *testing.B) {
	cluster, err := testbed.Boot(testbed.Options{ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := cluster.WaitSettled(ctx, len(cluster.Machines)); err != nil {
		b.Fatal(err)
	}
	conn, err := net.Dial("udp", cluster.WizardAddr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 64*1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &proto.Request{Seq: uint32(i), ServerNum: 4, Option: proto.OptPartialOK,
			Detail: "host_cpu_free > 0.5"}
		if _, err := conn.Write(proto.MarshalRequest(req)); err != nil {
			b.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: UDP vs TCP probe reporting (Ch. 6) ---

func benchProbeTransport(b *testing.B, tr probe.Transport) {
	db := store.New()
	mon, err := monitor.New(monitor.Config{Addr: "127.0.0.1:0", DB: db, EnableTCP: true})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go mon.Run(ctx)
	p, err := probe.New(probe.Config{
		Source:    sysinfo.NewSynthetic(sampleStatusRecord()),
		Monitor:   mon.Addr(),
		Transport: tr,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ReportOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbeReportUDP(b *testing.B) { benchProbeTransport(b, probe.UDP) }
func BenchmarkProbeReportTCP(b *testing.B) { benchProbeTransport(b, probe.TCP) }

// --- Ablation: centralized push vs distributed pull (§3.5.1) ---

func BenchmarkTransportCentralizedPush(b *testing.B) {
	src := store.New()
	for i := 0; i < 11; i++ {
		src.PutSys(sysinfo.Idle(fmt.Sprintf("h%d", i), 3000, 256))
	}
	dst := store.New()
	recv, err := transport.NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go recv.Run(ctx)
	reg := obs.NewRegistry()
	tx, err := transport.NewTransmitterObs(src, nil, reg)
	if err != nil {
		b.Fatal(err)
	}
	// Push as fast as possible to measure per-snapshot cost.
	go tx.RunActive(ctx, recv.Addr(), time.Microsecond)
	b.ResetTimer()
	sent := reg.Counter("transport_tx_snapshots")
	start := sent.Value()
	for sent.Value() < start+uint64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
}

func BenchmarkTransportDistributedPull(b *testing.B) {
	src := store.New()
	for i := 0; i < 11; i++ {
		src.PutSys(sysinfo.Idle(fmt.Sprintf("h%d", i), 3000, 256))
	}
	tx, err := transport.NewTransmitterObs(src, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go tx.ServePassive(ctx, ln)
	dst := store.New()
	recv, err := transport.NewReceiverObs(dst, "127.0.0.1:0", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	targets := []string{ln.Addr().String()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := recv.PullFrom(targets, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: probe-size rules (§3.3.2) as a sweep ---

func BenchmarkEstimatorProbeSizeSweep(b *testing.B) {
	path, err := testbed.CampusPath(1500, 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		s1, s2 int
	}{
		{"subMTU", 100, 500},
		{"mixedFrag", 2000, 6000},
		{"optimal", 1600, 2900},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bwest.EstimateOnce(path, bwest.StreamConfig{S1: c.s1, S2: c.s2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: selection cost against a large server pool ---

func BenchmarkSelectionScaling(b *testing.B) {
	for _, pool := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("servers=%d", pool), func(b *testing.B) {
			db := store.New()
			for i := 0; i < pool; i++ {
				db.PutSys(sysinfo.Idle(fmt.Sprintf("host-%04d", i), float64(1000+i), 256))
			}
			sel := newBenchSelector(b, db)
			prog, err := reqlang.Parse("(host_cpu_free > 0.9) && (host_memory_free > 5)")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(prog, 4, proto.OptPartialOK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func newBenchSelector(b *testing.B, db *store.DB) *core.Selector {
	b.Helper()
	sel, err := core.New(db, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return sel
}
