// The kill-and-recover harness: dreamserve runs as a real subprocess,
// gets SIGKILLed at randomized points mid-sweep, restarts on the same
// state directory, and must finish with results byte-identical to a
// server that was never touched. This is the end-to-end proof of the
// checkpoint/resume contract — no graceful-shutdown cooperation, no
// in-process shortcuts, the kills land wherever the clock says.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dreamserve-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "dreamserve")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building dreamserve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one server generation.
type proc struct {
	cmd  *exec.Cmd
	addr string
}

// startServer launches dreamserve on dir with an ephemeral port and
// waits for its "listening on" line to learn the bound address.
func startServer(t *testing.T, dir string) *proc {
	t.Helper()
	// The checkpoint cadence must let a unit reach its next checkpoint
	// inside one kill window, or the chaos loop makes no forward
	// progress: at ~25µs/event the killSpec units cost ~250ms per
	// 10000-event cycle, far beyond the 30–150ms kill intervals below.
	// 1000 events ≈ 25ms of work per cycle keeps every generation
	// productive while still exercising dozens of resume hops.
	cmd := exec.Command(binPath,
		"-addr", "127.0.0.1:0",
		"-dir", dir,
		"-workers", "2",
		"-checkpoint-events", "1000",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					select {
					case addrCh <- fields[0]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &proc{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("server never reported its listen address")
		return nil
	}
}

// kill SIGKILLs the server — no shutdown handler runs — and reaps it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

func (p *proc) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(p.url(path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// status fetches the job's status field without a JSON dependency on
// the serve package's types.
func (p *proc) status(t *testing.T, id string) (status string, completed string) {
	t.Helper()
	body := string(p.get(t, "/api/v1/jobs/"+id))
	pick := func(key string) string {
		i := strings.Index(body, `"`+key+`":`)
		if i < 0 {
			t.Fatalf("status response missing %q: %s", key, body)
		}
		rest := strings.TrimLeft(body[i+len(key)+3:], " \t")
		end := strings.IndexAny(rest, ",}\n")
		return strings.Trim(rest[:end], `" `)
	}
	return pick("status"), pick("completed")
}

// kill/sweep workload: killUnits units (two node counts × two task
// counts × both reconfiguration scenarios), each long enough to write
// several checkpoints.
const killUnits = 8

const killSpec = `{
  "params": {"Nodes": 20, "Configs": 15, "TaskTimeRange": [100, 20000], "Seed": 42},
  "node_counts": [20, 30],
  "task_counts": [5000, 10000]
}`

func submitKillSpec(t *testing.T, p *proc) {
	t.Helper()
	resp, err := http.Post(p.url("/api/v1/jobs"), "application/json", strings.NewReader(killSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
}

func TestKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill harness skipped in -short")
	}

	// Reference: one uninterrupted server generation.
	refDir := t.TempDir()
	ref := startServer(t, refDir)
	defer ref.kill()
	submitKillSpec(t, ref)
	deadline := time.Now().Add(3 * time.Minute)
	for {
		st, _ := ref.status(t, "j000001")
		if st == "done" {
			break
		}
		if st == "failed" || st == "cancelled" {
			t.Fatalf("reference job ended %q", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("reference job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	want := ref.get(t, "/api/v1/jobs/j000001/results")
	ref.kill()

	// Chaos: SIGKILL at randomized points, restart, repeat until done.
	seed := time.Now().UnixNano()
	rnd := rand.New(rand.NewSource(seed))
	t.Logf("kill-point seed: %d", seed)

	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "j000001")
	p := startServer(t, dir)
	submitKillSpec(t, p)

	// The first kill waits for a unit's checkpoint, so at least one
	// restart resumes from a snapshot. Whether a kill landed mid-run is
	// read from the state directory before the restart: after it, the
	// resumed job may finish before the first status poll.
	deadline = time.Now().Add(5 * time.Minute)
	for {
		if snaps, _ := filepath.Glob(filepath.Join(jobDir, "ck-*.snap")); len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no unit ever wrote a checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	kills, midRun := 0, false
	for {
		if kills > 0 {
			time.Sleep(time.Duration(30+rnd.Intn(120)) * time.Millisecond)
		}
		p.kill()
		kills++
		if time.Now().After(deadline) {
			t.Fatalf("job still unfinished after %d kills", kills)
		}
		results, _ := os.ReadFile(filepath.Join(jobDir, "results.ndjson"))
		if bytes.Count(results, []byte("\n")) < killUnits {
			midRun = true
		}
		p = startServer(t, dir)
		st, completed := p.status(t, "j000001")
		switch st {
		case "done":
			t.Logf("job recovered to done after %d SIGKILLs", kills)
			got := p.get(t, "/api/v1/jobs/j000001/results")
			p.kill()
			if !midRun {
				t.Fatal("every kill landed after completion; harness never exercised recovery")
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered results (%d bytes) differ from uninterrupted reference (%d bytes)",
					len(got), len(want))
			}
			// The on-disk files must agree with the streamed bodies.
			gotFile, err := os.ReadFile(filepath.Join(dir, "jobs", "j000001", "results.ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotFile, want) {
				t.Fatal("on-disk results differ from the streamed reference")
			}
			return
		case "failed", "cancelled":
			t.Fatalf("job ended %q after kill %d", st, kills)
		default:
			t.Logf("kill %d: resumed %q with %s units persisted", kills, st, completed)
		}
	}
}
