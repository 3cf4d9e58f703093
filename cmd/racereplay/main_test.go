package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"goldilocks/internal/detectors"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

func writeTraceFile(t *testing.T, tr *event.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := event.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func racyTrace() *event.Trace {
	return event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		Write(2, 10, 0).
		Trace()
}

func cleanTrace() *event.Trace {
	return event.NewBuilder().
		Fork(1, 2).
		Acquire(1, 20).Write(1, 10, 0).Release(1, 20).
		Acquire(2, 20).Write(2, 10, 0).Release(2, 20).
		Trace()
}

func TestReplayDetectors(t *testing.T) {
	racy := writeTraceFile(t, racyTrace())
	clean := writeTraceFile(t, cleanTrace())
	for _, e := range append(detectors.All(), detectors.Entry{Name: "all"}) {
		det := e.Name
		n, err := replay(racy, det, false, "", os.Stdout)
		if err != nil {
			t.Fatalf("%s: %v", det, err)
		}
		if n == 0 {
			t.Errorf("%s: no race on racy trace", det)
		}
		if code := exitFor(n, err); code != resilience.ExitRace {
			t.Errorf("%s: exit code %d, want %d", det, code, resilience.ExitRace)
		}
	}
	// The lockset baselines may false-alarm; every other backend is
	// precise on this trace.
	for _, e := range detectors.All() {
		if e.Precision == detectors.Approximate {
			continue
		}
		det := e.Name
		n, err := replay(clean, det, false, "", os.Stdout)
		if err != nil {
			t.Fatalf("%s: %v", det, err)
		}
		if n != 0 {
			t.Errorf("%s: %d false races on clean trace", det, n)
		}
		if code := exitFor(n, err); code != resilience.ExitClean {
			t.Errorf("%s: exit code %d, want %d", det, code, resilience.ExitClean)
		}
	}
}

// TestReplayStreamFormat: racereplay reads only the checksummed JSONL
// trace file format. A file in the retired single-object JSON format is
// a runtime failure, not an empty trace with a clean verdict.
func TestReplayStreamFormat(t *testing.T) {
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	src := `{"actions":[{"kind":"fork","t":1,"peer":2},{"kind":"write","t":1,"o":10},{"kind":"write","t":2,"o":10}]}`
	if err := os.WriteFile(legacy, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := replay(legacy, "goldilocks", false, "", os.Stdout)
	if code := exitFor(n, err); code != resilience.ExitRuntime {
		t.Errorf("legacy file: exit code %d (err %v), want %d", code, err, resilience.ExitRuntime)
	}
}

// TestReplayTruncatedStream: a streaming trace cut mid-record still
// replays its valid prefix and reports the dropped tail.
func TestReplayTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, racyTrace()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the final record: the racy second write is lost, the
	// fork and first write survive.
	cut := bytes.LastIndexByte(full[:len(full)-1], '\n') + 5
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	n, err := replay(path, "goldilocks", false, "", out)
	if err != nil {
		t.Fatalf("truncated stream not salvaged: %v", err)
	}
	if n != 0 {
		t.Errorf("%d races from a prefix that lost the racing access", n)
	}
	data, _ := os.ReadFile(out.Name())
	if !bytes.Contains(data, []byte("1 records dropped")) {
		t.Errorf("output does not report the dropped record:\n%s", data)
	}
	if !bytes.Contains(data, []byte("trace: 2 actions")) {
		t.Errorf("output does not show the 2-action prefix:\n%s", data)
	}
}

func TestReplayOracle(t *testing.T) {
	racy := writeTraceFile(t, racyTrace())
	n, err := replay(racy, "", true, "", os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("oracle pairs = %d, want 1", n)
	}
}

func TestReplayErrors(t *testing.T) {
	n, err := replay(filepath.Join(t.TempDir(), "nope.json"), "goldilocks", false, "", os.Stdout)
	if err == nil {
		t.Error("missing file accepted")
	}
	if code := exitFor(n, err); code != resilience.ExitRuntime {
		t.Errorf("missing file: exit code %d, want %d", code, resilience.ExitRuntime)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := replay(bad, "goldilocks", false, "", os.Stdout); err == nil {
		t.Error("corrupt file accepted")
	}
	good := writeTraceFile(t, cleanTrace())
	n, err = replay(good, "nonsense", false, "", os.Stdout)
	if err == nil {
		t.Error("unknown detector accepted")
	}
	if !errors.Is(err, errUsage) {
		t.Errorf("unknown detector error %v is not a usage error", err)
	}
	if code := exitFor(n, err); code != resilience.ExitUsage {
		t.Errorf("unknown detector: exit code %d, want %d", code, resilience.ExitUsage)
	}
}

// TestStatsJSONRaceRecords pins the race records of the -stats-json
// document, byte for byte, for every backend on a racy trace. The
// precise backends name the previous access, and the Goldilocks engines
// add provenance. cmd/goldilocks writes the same records
// (detect.Records) and pins its own.
func TestStatsJSONRaceRecords(t *testing.T) {
	const precise = `[
        {
          "var": "o10.f0",
          "access": "T2:write(o10.f0)",
          "pos": 2,
          "prev": "T1:write(o10.f0)",
          "provenance": {
            "var": "o10.f0",
            "prev": "T1:write(o10.f0)",
            "thread": "T2",
            "base": "{T1}",
            "final": "{T1}"
          }
        }
      ]`
	const noPrev = `[
        {
          "var": "o10.f0",
          "access": "T2:write(o10.f0)",
          "pos": 2
        }
      ]`
	want := map[string]string{
		"goldilocks":  precise,
		"spec":        precise,
		"vectorclock": noPrev,
		"eraser":      noPrev,
		"basic": `[
        {
          "var": "o10.f0",
          "access": "T1:write(o10.f0)",
          "pos": 1
        }
      ]`,
	}
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	if _, err := replay(writeTraceFile(t, racyTrace()), "all", false, jsonPath, os.Stdout); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Detectors []struct {
			Detector  string            `json:"detector"`
			RuleFires map[string]uint64 `json:"rule_fires"`
			Races     json.RawMessage   `json:"races"`
		} `json:"detectors"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Detectors) != len(want) {
		t.Fatalf("%d detectors in the document, want %d", len(parsed.Detectors), len(want))
	}
	// Exactly the two Goldilocks engines count rule fires, and they
	// count the same ones: a fork, then two plain accesses.
	wantFires := map[string]uint64{"1:access-reset": 2, "6:fork": 1}
	for _, d := range parsed.Detectors {
		if got := string(d.Races); got != want[d.Detector] {
			t.Errorf("%s races:\n%s\nwant:\n%s", d.Detector, got, want[d.Detector])
		}
		switch d.Detector {
		case "goldilocks", "spec":
			if len(d.RuleFires) != obs.NumRules {
				t.Errorf("%s rule_fires has %d rules, want %d", d.Detector, len(d.RuleFires), obs.NumRules)
			}
			for rule, n := range d.RuleFires {
				if n != wantFires[rule] {
					t.Errorf("%s rule_fires[%s] = %d, want %d", d.Detector, rule, n, wantFires[rule])
				}
			}
		default:
			if d.RuleFires != nil {
				t.Errorf("%s carries rule_fires %v, want the field omitted", d.Detector, d.RuleFires)
			}
		}
	}
}
