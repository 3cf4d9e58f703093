// Package examples_test builds and runs every runnable example under
// the detector and asserts the verdict the README documents: the racy
// demonstrations catch their race (and handle it), the race-free ones
// stay silent. This keeps the examples honest — a detector regression
// that flips an example's verdict fails CI even if no unit test notices
// — and doubles as an end-to-end smoke of the public API and the MJ
// runtime.
package examples_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDir compiles a main package and returns the binary path.
// Binaries are cached per test run in a shared temp dir.
func buildDir(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(binDir(t), filepath.Base(pkg))
	if _, err := os.Stat(bin); err == nil {
		return bin
	}
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Dir = ".." // repo root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

var sharedBinDir string

func binDir(t *testing.T) string {
	t.Helper()
	if sharedBinDir == "" {
		dir, err := os.MkdirTemp("", "goldilocks-examples-*")
		if err != nil {
			t.Fatal(err)
		}
		sharedBinDir = dir
	}
	return sharedBinDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if sharedBinDir != "" {
		os.RemoveAll(sharedBinDir)
	}
	os.Exit(code)
}

// goExamples lists every Go example with its expected exit code and the
// output markers that pin its verdict (see examples/README.md).
var goExamples = []struct {
	name     string
	exitCode int
	markers  []string
	absent   []string // substrings that must NOT appear
}{
	{
		name:     "quickstart",
		exitCode: 0,
		markers:  []string{"races observed by the runtime: 1", "DataRaceException"},
	},
	{
		name:     "ftpserver",
		exitCode: 0,
		markers:  []string{"race detected and handled", "terminated gracefully"},
	},
	{
		name:     "ownership",
		exitCode: 0,
		// Precise detectors stay silent on the handoff; the imprecise
		// baselines must still false-alarm (that contrast is the example).
		markers: []string{"race-free ✓", "FALSE ALARM"},
	},
	{
		name:     "txlist",
		exitCode: 0,
		markers:  []string{"races detected: 0"},
		absent:   []string{"DataRaceException in"},
	},
	{
		name:     "accounts",
		exitCode: 0,
		markers:  []string{"withdraw interrupted", "final balances"},
	},
	{
		name:     "multiset",
		exitCode: 0,
		markers:  []string{"No DataRaceException was thrown"},
	},
}

func TestGoExamples(t *testing.T) {
	for _, ex := range goExamples {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			bin := buildDir(t, filepath.Join("examples", ex.name))
			var out bytes.Buffer
			cmd := exec.Command(bin)
			cmd.Stdout, cmd.Stderr = &out, &out
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("run: %v", err)
			}
			if code != ex.exitCode {
				t.Errorf("exit code %d, want %d\n%s", code, ex.exitCode, out.String())
			}
			for _, m := range ex.markers {
				if !strings.Contains(out.String(), m) {
					t.Errorf("output missing %q:\n%s", m, out.String())
				}
			}
			for _, m := range ex.absent {
				if strings.Contains(out.String(), m) {
					t.Errorf("output unexpectedly contains %q:\n%s", m, out.String())
				}
			}
		})
	}
}

// mjPrograms lists the MJ programs with their expected deterministic-
// scheduler verdicts: exit 0 for race-free runs, exit 1 when the run
// reports a race (racy.mj catches its DataRaceException, but the CLI
// still reports the race in its exit code). Static elimination only
// skips checks that cannot race, so each verdict holds with and without
// it.
var mjPrograms = []struct {
	name     string
	exitCode int
}{
	{"philosophers", 0},
	{"txbank", 0},
	{"handshake", 0},
	{"pipeline", 0},
	{"racy", 1},
}

func TestMJPrograms(t *testing.T) {
	cli := buildDir(t, filepath.Join("cmd", "goldilocks"))
	for _, p := range mjPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, analysis := range []string{"none", "chord", "rcc"} {
				t.Run(analysis, func(t *testing.T) {
					var out bytes.Buffer
					cmd := exec.Command(cli, "-sched", "det", "-seed", "4", "-static", analysis, filepath.Join("mj", p.name+".mj"))
					cmd.Stdout, cmd.Stderr = &out, &out
					err := cmd.Run()
					code := 0
					if ee, ok := err.(*exec.ExitError); ok {
						code = ee.ExitCode()
					} else if err != nil {
						t.Fatalf("run: %v", err)
					}
					if code != p.exitCode {
						t.Errorf("exit code %d, want %d\n%s", code, p.exitCode, out.String())
					}
				})
			}
		})
	}
}
