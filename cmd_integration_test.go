package lotus_test

// End-to-end integration tests of the command-line tools: build the real
// binaries and push a trace through the whole flow —
// lotus-run → lotus-viz (JSON + ascii) → lotus-advise → lotus-diff →
// lotus-map — route a lotus-fetch cluster around a dead lotus-serve node,
// and restart a lotus-serve killed with SIGKILL on its disk cache. Skipped
// with -short.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildTool compiles one command into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		// lotus-advise exits 3 on critical findings by design.
		if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 3 && strings.Contains(bin, "advise") {
			return string(out)
		}
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()

	lotusRun := buildTool(t, dir, "lotus-run")
	lotusViz := buildTool(t, dir, "lotus-viz")
	lotusAdvise := buildTool(t, dir, "lotus-advise")
	lotusDiff := buildTool(t, dir, "lotus-diff")

	// 1. Trace a baseline and a tuned run.
	baseLog := filepath.Join(dir, "base.lotustrace")
	tunedLog := filepath.Join(dir, "tuned.lotustrace")
	out := run(t, lotusRun, "-workload", "IC", "-samples", "512", "-batch", "64",
		"-workers", "1", "-gpus", "2", "-log", baseLog)
	if !strings.Contains(out, "Loader") {
		t.Fatalf("lotus-run output missing op table:\n%s", out)
	}
	run(t, lotusRun, "-workload", "IC", "-samples", "512", "-batch", "64",
		"-workers", "4", "-gpus", "2", "-log", tunedLog)

	// 2. Visualize: Chrome JSON and terminal Gantt.
	vizPath := filepath.Join(dir, "viz.json")
	run(t, lotusViz, "-log", baseLog, "-out", vizPath, "-fine")
	blob, err := os.ReadFile(vizPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("viz output is not valid chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty chrome trace")
	}
	ascii := run(t, lotusViz, "-log", baseLog, "-ascii", "-width", "80")
	if !strings.Contains(ascii, "main") || !strings.Contains(ascii, "legend") {
		t.Fatalf("ascii timeline broken:\n%s", ascii)
	}

	// 3. Advise on the preprocessing-bound baseline.
	advice := run(t, lotusAdvise, "-log", baseLog)
	if !strings.Contains(advice, "preprocessing-bound") {
		t.Fatalf("advisor missed the bottleneck:\n%s", advice)
	}

	// 4. Diff baseline vs tuned.
	diff := run(t, lotusDiff, "-before", baseLog, "-after", tunedLog)
	if !strings.Contains(diff, "wall span") || !strings.Contains(diff, "Loader") {
		t.Fatalf("diff output broken:\n%s", diff)
	}
}

func TestCLIMapProducesLoadableMapping(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	lotusMap := buildTool(t, dir, "lotus-map")
	mappingPath := filepath.Join(dir, "mapping_funcs.json")
	out := run(t, lotusMap, "-workload", "IC", "-arch", "amd", "-out", mappingPath)
	if !strings.Contains(out, "decode_mcu") {
		t.Fatalf("mapping output missing decode path:\n%s", out)
	}
	blob, err := os.ReadFile(mappingPath)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Arch string                       `json:"arch"`
		Ops  map[string][]json.RawMessage `json:"ops"`
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatalf("mapping JSON invalid: %v", err)
	}
	if m.Arch != "amd" || len(m.Ops["Loader"]) == 0 {
		t.Fatalf("mapping content wrong: arch=%s loader=%d", m.Arch, len(m.Ops["Loader"]))
	}
}

// TestCLIClusterNodeDown: three lotus-serve nodes, one killed before the
// run; lotus-fetch -cluster delivers every batch of both epochs exactly once
// from the survivors and reports the dead node down with 0 batches.
func TestCLIClusterNodeDown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	lotusServe := buildTool(t, dir, "lotus-serve")
	lotusFetch := buildTool(t, dir, "lotus-fetch")

	var addrs []string
	var nodes []*exec.Cmd
	for range 3 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(lotusServe, "-materialize-dim", "32", "-workload", "IC", "-samples", "640", "-batch", "32",
			"-addr", addr, "-http", "")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		addrs, nodes = append(addrs, addr), append(nodes, cmd)
	}
	for _, addr := range addrs {
		deadline := time.Now().Add(30 * time.Second)
		for {
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("lotus-serve on %s never listened: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	dead := addrs[1]
	nodes[1].Process.Kill()
	nodes[1].Wait()

	out := run(t, lotusFetch, "-cluster", "-addr", strings.Join(addrs, ","), "-epochs", "2", "-quiet")
	const perEpoch = 640 / 32
	if !strings.Contains(out, fmt.Sprintf("2 epochs, %d batches,", 2*perEpoch)) {
		t.Fatalf("lotus-fetch did not deliver %d batches:\n%s", 2*perEpoch, out)
	}
	// The per-node lines: "lotus-fetch:   <addr>   <n> batches (<state>)".
	total, seen := 0, map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || f[0] != "lotus-fetch:" || f[3] != "batches" {
			continue
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			t.Fatalf("per-node line %q: %v", line, err)
		}
		if down := f[4] == "(down)"; down != (f[1] == dead) || down && n != 0 {
			t.Fatalf("node %s: %d batches %s; the killed node is %s\n%s", f[1], n, f[4], dead, out)
		}
		total += n
		seen[f[1]] = true
	}
	if len(seen) != len(addrs) || total != 2*perEpoch {
		t.Fatalf("%d per-node lines summing to %d batches, want %d lines and each of the %d batches once\n%s",
			len(seen), total, len(addrs), 2*perEpoch, out)
	}
}

// TestCLIFetchSeveralAddrsNeedCluster: a plain lotus-fetch talks to one
// server, so several -addr endpoints without -cluster are a usage error
// (exit 2) that points at -cluster, before anything is dialled.
func TestCLIFetchSeveralAddrsNeedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	lotusFetch := buildTool(t, t.TempDir(), "lotus-fetch")
	out, err := exec.Command(lotusFetch, "-addr", "127.0.0.1:1,127.0.0.1:2").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "-cluster") {
		t.Fatalf("lotus-fetch with two endpoints and no -cluster: %v\n%s\nwant exit 2 naming -cluster", err, out)
	}
}

// TestCLIServeNeedsSamples: a dataset of fewer than one sample is a usage
// error (exit 2) naming -samples, before anything is built or listened on.
func TestCLIServeNeedsSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	lotusServe := buildTool(t, t.TempDir(), "lotus-serve")
	for _, n := range []string{"0", "-5"} {
		// A server that starts anyway would never exit on its own.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, lotusServe, "-samples", n, "-addr", "127.0.0.1:0", "-http", "").CombinedOutput()
		cancel()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "-samples "+n+": ") || strings.Contains(string(out), "panic") {
			t.Fatalf("lotus-serve -samples %s: %v\n%s\nwant a usage error naming -samples, exit 2", n, err, out)
		}
	}
}

// TestCLIDiskCacheSurvivesKill: a lotus-serve killed with SIGKILL, once its
// spills reached the disk tier, leaves a -disk-cache-dir that a restarted
// server serves the whole plan from — no Close, no Flush, nothing but the
// segments to recover from.
func TestCLIDiskCacheSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	lotusServe := buildTool(t, dir, "lotus-serve")
	lotusFetch := buildTool(t, dir, "lotus-fetch")
	cacheDir := filepath.Join(dir, "disk")
	const plan = 2 * 640 / 64 // two epochs of 10 batches

	freeAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	type diskCache struct {
		Spills      int64 `json:"spills"`
		BatchHits   int64 `json:"batch_hits"`
		BatchMisses int64 `json:"batch_misses"`
	}
	metrics := func(httpAddr string) diskCache {
		resp, err := http.Get("http://" + httpAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap struct {
			DiskCache *diskCache `json:"disk_cache"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || snap.DiskCache == nil {
			t.Fatalf("/metrics disk_cache: %+v, %v", snap.DiskCache, err)
		}
		return *snap.DiskCache
	}
	// life starts a server on cacheDir, fetches the plan through it, and
	// returns the server and its sidecar address.
	life := func() (*exec.Cmd, string) {
		addr, httpAddr := freeAddr(), freeAddr()
		cmd := exec.Command(lotusServe, "-materialize-dim", "32", "-workload", "IC", "-samples", "640", "-batch", "64",
			"-addr", addr, "-http", httpAddr, "-disk-cache-dir", cacheDir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		deadline := time.Now().Add(30 * time.Second)
		for {
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("lotus-serve on %s never listened: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if out := run(t, lotusFetch, "-addr", addr, "-epochs", "2", "-quiet"); !strings.Contains(out, fmt.Sprintf("2 epochs, %d batches,", plan)) {
			t.Fatalf("lotus-fetch did not deliver %d batches:\n%s", plan, out)
		}
		return cmd, httpAddr
	}

	first, httpAddr := life()
	deadline := time.Now().Add(30 * time.Second)
	for st := metrics(httpAddr); st.Spills != plan; st = metrics(httpAddr) {
		if time.Now().After(deadline) {
			t.Fatalf("first life spilled %d of %d batches", st.Spills, plan)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := first.Process.Kill(); err != nil { // SIGKILL: no Close, no Flush
		t.Fatal(err)
	}
	first.Wait()

	_, httpAddr = life()
	if st := metrics(httpAddr); st.BatchMisses != 0 || st.BatchHits != plan {
		t.Fatalf("after SIGKILL and restart: disk_cache %+v, want %d hits and no miss", st, plan)
	}
}
