package conformance

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"goldilocks/internal/event"
)

// This file manages the on-disk counterexample corpus. Counterexamples
// are stored in the checksummed trace file format (event.WriteTrace):
// a header line plus one CRC-tagged record per action, so a corpus file
// is self-describing, appendably diffable, and corrupt records are
// detected on load rather than silently misreplayed. File names embed
// the CRC-32 of the serialized bytes — content-addressed, so re-finding
// the same minimized counterexample is idempotent and the corpus never
// accumulates duplicates.

// CorpusEntry is one loaded corpus trace.
type CorpusEntry struct {
	Name  string // file base name
	Path  string
	Trace *event.Trace
}

// EncodeTrace serializes tr in the trace file format and returns the bytes
// and their CRC-32 (IEEE), which doubles as the corpus file identity.
func EncodeTrace(tr *event.Trace) ([]byte, uint32, error) {
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, tr); err != nil {
		return nil, 0, err
	}
	b := buf.Bytes()
	return b, crc32.ChecksumIEEE(b), nil
}

// WriteCounterexample writes tr into dir as ce-<crc32>.jsonl and
// returns the file path. Writing the same trace twice is a no-op with
// the same name. The directory is created if missing.
func WriteCounterexample(dir string, tr *event.Trace) (string, error) {
	b, sum, err := EncodeTrace(tr)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("ce-%08x.jsonl", sum))
	if _, err := os.Stat(path); err == nil {
		return path, nil // content-addressed: already present
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCorpus reads every .jsonl trace under dir (sorted by name, so
// replay order is stable) with LoadTraceFile.
func LoadCorpus(dir string) ([]CorpusEntry, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []CorpusEntry
	for _, path := range names {
		tr, err := LoadTraceFile(path)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", filepath.Base(path), err)
		}
		out = append(out, CorpusEntry{Name: filepath.Base(path), Path: path, Trace: tr})
	}
	return out, nil
}

// LoadTraceFile reads one corpus trace. Corpus files must load
// losslessly: a record dropped by checksum salvage means the corpus
// itself is corrupt, which is an error here, not a salvage.
func LoadTraceFile(path string) (*event.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, dropped, err := event.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	if dropped != 0 {
		return nil, fmt.Errorf("%d corrupt records dropped", dropped)
	}
	return tr, nil
}

// ReportCounterexample renders a human-readable failure report: the
// divergence, the minimized trace, and the replay command.
func ReportCounterexample(d *Divergence, path string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", d)
	fmt.Fprintf(&b, "minimized trace (%d events):\n%s", d.Trace.Len(), Describe(d.Trace))
	if path != "" {
		fmt.Fprintf(&b, "saved: %s\nreplay: go run ./cmd/racefuzz -check %s\n", path, path)
	}
	return b.String()
}
