package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds and runs the example and checks the core numbers it
// prints after each update, its snapshot line and its self-verification
// line — the example must stay a working, correct demo, not just compile.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke run skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "quickstart")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"initial cores: [1 1 1 0]",
		"after insert: [2 2 2 0]",
		"after batch:  [3 3 3 3]",
		"after remove: [2 2 2 2]",
		"snapshot: epoch 4 max core 2 core of 3 2",
		"maintained cores verified against a fresh decomposition",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
