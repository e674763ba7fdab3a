package smartsock_test

// Multi-process integration: build the real binaries and stand up the
// thesis's deployment — probe on a "server", sysmond on the monitor
// machine, wizardd on the wizard machine — as separate OS processes
// talking over real sockets, then query it with smartreq. This is the
// closest the test suite gets to the production topology of Fig 3.1.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// freePort grabs an ephemeral port and releases it for a child
// process to claim. Mildly racy, retried by the caller on failure.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

func startDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var output bytes.Buffer
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("%s output:\n%s", filepath.Base(bin), output.String())
		}
	})
	return cmd
}

// TestMultiProcessDeployment runs the real binaries end to end, with
// the daemons' defaults and with -compat on both (the thesis wire and
// pass-through admission): each must select the live host.
func TestMultiProcessDeployment(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the probe binary reads /proc")
	}
	if testing.Short() {
		t.Skip("builds and spawns five processes")
	}
	bins := buildTools(t, "probe", "sysmond", "wizardd", "smartreq")

	for _, tc := range []struct {
		name  string
		flags []string // given to both sysmond and wizardd
	}{
		{"default", nil},
		{"compat", []string{"-compat"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			monPort := freePort(t)
			recvPort := freePort(t)
			wizPort := freePort(t)
			monAddr := fmt.Sprintf("127.0.0.1:%d", monPort)
			recvAddr := fmt.Sprintf("127.0.0.1:%d", recvPort)
			wizAddr := fmt.Sprintf("127.0.0.1:%d", wizPort)

			seclog := filepath.Join(t.TempDir(), "security.log")
			if err := os.WriteFile(seclog, []byte("integration-host 5\n"), 0o644); err != nil {
				t.Fatal(err)
			}

			startDaemon(t, bins["wizardd"], append([]string{
				"-listen", wizAddr,
				"-receiver-listen", recvAddr,
			}, tc.flags...)...)
			startDaemon(t, bins["sysmond"], append([]string{
				"-listen", monAddr,
				"-interval", "200ms",
				"-receiver", recvAddr,
				"-seclog", seclog,
			}, tc.flags...)...)
			startDaemon(t, bins["probe"],
				"-monitor", monAddr,
				"-host", "integration-host",
				"-interval", "200ms",
			)

			// Query until the pipeline settles (probe → sysmond → wizardd).
			deadline := time.Now().Add(20 * time.Second)
			requirement := "host_memory_total > 0\nhost_security_level >= 5\n"
			var lastOut string
			for time.Now().Before(deadline) {
				cmd := exec.Command(bins["smartreq"],
					"-wizard", wizAddr,
					"-n", "1",
					"-req", requirement,
					"-timeout", "2s",
				)
				out, err := cmd.CombinedOutput()
				lastOut = string(out)
				if err == nil && strings.Contains(lastOut, "integration-host") {
					return // success: the live host was selected end to end
				}
				time.Sleep(300 * time.Millisecond)
			}
			t.Fatalf("pipeline never answered; last smartreq output:\n%s", lastOut)
		})
	}
}

func TestSmartreqRejectsBadRequirementLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bins := buildTools(t, "smartreq")
	cmd := exec.Command(bins["smartreq"], "-wizard", "127.0.0.1:1", "-req", "a <")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("smartreq accepted a broken requirement")
	}
	if !strings.Contains(string(out), "reqlang") {
		t.Errorf("error output %q does not mention the parser", out)
	}
}

func TestSmartbenchListsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bins := buildTools(t, "smartbench")
	out, err := exec.Command(bins["smartbench"], "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("smartbench -list: %v\n%s", err, out)
	}
	for _, id := range []string{"table3.3", "table5.3", "table5.9", "fig3.3", "fig5.3"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

func TestMultiProcessNetworkMonitor(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the probe binary reads /proc")
	}
	if testing.Short() {
		t.Skip("builds and spawns four processes")
	}
	bins := buildTools(t, "probe", "sysmond", "wizardd", "echod", "smartreq")

	monPort := freePort(t)
	recvPort := freePort(t)
	wizPort := freePort(t)
	echoPort := freePort(t)
	monAddr := fmt.Sprintf("127.0.0.1:%d", monPort)
	recvAddr := fmt.Sprintf("127.0.0.1:%d", recvPort)
	wizAddr := fmt.Sprintf("127.0.0.1:%d", wizPort)
	echoAddr := fmt.Sprintf("127.0.0.1:%d", echoPort)

	startDaemon(t, bins["echod"], "-listen", echoAddr)
	startDaemon(t, bins["wizardd"],
		"-listen", wizAddr,
		"-receiver-listen", recvAddr,
		"-local-monitor", "netmon-here",
		"-groups", "netmon-host=peer-group",
	)
	startDaemon(t, bins["sysmond"],
		"-listen", monAddr,
		"-interval", "200ms",
		"-receiver", recvAddr,
		"-netmon", "netmon-here",
		"-peer", "peer-group="+echoAddr,
	)
	startDaemon(t, bins["probe"],
		"-monitor", monAddr,
		"-host", "netmon-host",
		"-interval", "200ms",
	)

	// On loopback the echo path is effectively infinite bandwidth and
	// near-zero delay, so this requirement passes once netmon has
	// probed the peer at least once.
	requirement := "monitor_network_delay < 100\n"
	deadline := time.Now().Add(25 * time.Second)
	var lastOut string
	for time.Now().Before(deadline) {
		cmd := exec.Command(bins["smartreq"],
			"-wizard", wizAddr, "-n", "1", "-req", requirement, "-timeout", "2s")
		out, err := cmd.CombinedOutput()
		lastOut = string(out)
		if err == nil && strings.Contains(lastOut, "netmon-host") {
			return
		}
		time.Sleep(400 * time.Millisecond)
	}
	t.Fatalf("network-monitored pipeline never answered; last output:\n%s", lastOut)
}
