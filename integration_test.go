package tsgraph_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildTools compiles the four CLIs once per test binary.
var (
	toolsOnce sync.Once
	toolsDir  string
	toolsErr  error
)

func tools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short mode")
	}
	toolsOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tsgraph-tools")
		if err != nil {
			toolsErr = err
			return
		}
		toolsDir = dir
		for _, tool := range []string{"tsgen", "tspart", "tsrun", "tsbench"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				toolsErr = err
				_ = out
				return
			}
		}
	})
	if toolsErr != nil {
		t.Fatalf("building tools: %v", toolsErr)
	}
	return toolsDir
}

func runTool(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	bin := tools(t)
	ds := filepath.Join(t.TempDir(), "ds")

	out := runTool(t, bin, "tsgen",
		"-out", ds, "-graph", "road", "-rows", "16", "-cols", "16",
		"-steps", "8", "-data", "both", "-hit", "0.3", "-parts", "3", "-snapshot-every", "3")
	if !strings.Contains(out, "wrote 8 instances") {
		t.Fatalf("tsgen output: %s", out)
	}

	out = runTool(t, bin, "tspart", "-in", ds, "-sweep", "2,3")
	if !strings.Contains(out, "multilevel") || !strings.Contains(out, "stored assignment") {
		t.Fatalf("tspart output: %s", out)
	}

	out = runTool(t, bin, "tsrun", "-in", ds, "-algo", "tdsp", "-source", "0")
	if !strings.Contains(out, "tdsp: reached") {
		t.Fatalf("tsrun tdsp output: %s", out)
	}

	out = runTool(t, bin, "tsrun", "-in", ds, "-algo", "hashtag", "-meme", "#meme")
	if !strings.Contains(out, "hashtag #meme") {
		t.Fatalf("tsrun hashtag output: %s", out)
	}
}

func TestCLIBenchDatasets(t *testing.T) {
	bin := tools(t)
	out := runTool(t, bin, "tsbench", "-scale", "small", "-exp", "datasets")
	if !strings.Contains(out, "Dataset table") || !strings.Contains(out, "ROAD") {
		t.Fatalf("tsbench output: %s", out)
	}
}

func TestCLIDistributedTDSP(t *testing.T) {
	bin := tools(t)
	ds := filepath.Join(t.TempDir(), "ds")
	runTool(t, bin, "tsgen",
		"-out", ds, "-graph", "road", "-rows", "12", "-cols", "12",
		"-steps", "6", "-data", "road", "-parts", "2")

	addrs := "127.0.0.1:7781,127.0.0.1:7782"
	done := make(chan string, 1)
	go func() {
		cmd := exec.Command(filepath.Join(bin, "tsrun"),
			"-in", ds, "-algo", "tdsp", "-cluster-rank", "1", "-cluster-addrs", addrs)
		out, _ := cmd.CombinedOutput()
		done <- string(out)
	}()
	out0 := runTool(t, bin, "tsrun",
		"-in", ds, "-algo", "tdsp", "-cluster-rank", "0", "-cluster-addrs", addrs)
	out1 := <-done
	if !strings.Contains(out0, "rank 0: tdsp finalized") {
		t.Fatalf("rank 0 output: %s", out0)
	}
	if !strings.Contains(out1, "rank 1: tdsp finalized") {
		t.Fatalf("rank 1 output: %s", out1)
	}
}

func TestCLIErrors(t *testing.T) {
	bin := tools(t)
	cmd := exec.Command(filepath.Join(bin, "tsrun"), "-in", filepath.Join(t.TempDir(), "missing"))
	if err := cmd.Run(); err == nil {
		t.Error("tsrun on a missing dataset should fail")
	}
	cmd = exec.Command(filepath.Join(bin, "tsgen"))
	if err := cmd.Run(); err == nil {
		t.Error("tsgen without -out should fail")
	}
}
