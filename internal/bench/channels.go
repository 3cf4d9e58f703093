package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"goldilocks/internal/detectors"
)

// channelLadderSrc is the channel-style rung of the contention ladder:
// a capacity-1 token channel serializes the critical section, so the
// workers mutually exclude through the channel conveyor alone. The
// weight parameter scales the critical-section body (distinct cells
// touched under the token).
const channelLadderSrc = `
class Cell { int v; }
class Main {
	Cell[] cells;
	chan<int> tok;
	void worker(int iters) {
		for (int i = 0; i < iters; i = i + 1) {
			int t = recv(tok);
			for (int k = 0; k < @WEIGHT@; k = k + 1) { cells[k].v = cells[k].v + 1; }
			send(tok, t);
		}
	}
	void main() {
		cells = new Cell[@WEIGHT@];
		for (int k = 0; k < @WEIGHT@; k = k + 1) { cells[k] = new Cell(); }
		tok = make(chan<int>, 1);
		thread[] ts = new thread[@WORKERS@];
		for (int w = 0; w < @WORKERS@; w = w + 1) { ts[w] = spawn this.worker(@ITERS@); }
		send(tok, 1);
		for (int w = 0; w < @WORKERS@; w = w + 1) { join(ts[w]); }
		print("sum", cells[0].v);
	}
}
`

// monitorLadderSrc is the monitor-style rung: the same critical section
// guarded by synchronized(this) instead of the token channel.
const monitorLadderSrc = `
class Cell { int v; }
class Main {
	Cell[] cells;
	void worker(int iters) {
		for (int i = 0; i < iters; i = i + 1) {
			synchronized (this) {
				for (int k = 0; k < @WEIGHT@; k = k + 1) { cells[k].v = cells[k].v + 1; }
			}
		}
	}
	void main() {
		cells = new Cell[@WEIGHT@];
		for (int k = 0; k < @WEIGHT@; k = k + 1) { cells[k] = new Cell(); }
		thread[] ts = new thread[@WORKERS@];
		for (int w = 0; w < @WORKERS@; w = w + 1) { ts[w] = spawn this.worker(@ITERS@); }
		for (int w = 0; w < @WORKERS@; w = w + 1) { join(ts[w]); }
		print("sum", cells[0].v);
	}
}
`

// channelStyles pairs each sync style with its source template. Both
// programs are race-free by construction; a nonzero report from an
// approximate backend is a false alarm, recorded but not an error.
var channelStyles = []struct {
	name string
	src  string
}{
	{"channels", channelLadderSrc},
	{"monitors", monitorLadderSrc},
}

// channelBackends is the per-backend overhead matrix: "none" runs the
// interpreter with no detector attached and is the overhead baseline
// every other backend is normalized against.
var channelBackends = append([]detectors.Entry{{Name: "none"}}, detectors.Runtime()...)

// ChannelPoint is one cell of the sweep: a (style, workers, weight,
// backend) combination with its race count, wall time, critical-section
// throughput, and overhead relative to the detector-free baseline of
// the same rung.
type ChannelPoint struct {
	Style     string  `json:"style"`
	Workers   int     `json:"workers"`
	Weight    int     `json:"weight"`
	Backend   string  `json:"backend"`
	Races     int     `json:"races"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// SectionsPerSec is critical sections retired per second
	// (workers x iters / elapsed).
	SectionsPerSec float64 `json:"sections_per_sec"`
	// Overhead is ElapsedMS divided by the "none" backend's ElapsedMS on
	// the same rung (1.0 for the baseline itself).
	Overhead float64 `json:"overhead_vs_none"`
}

// ChannelSweepConfig shapes the contention ladder.
type ChannelSweepConfig struct {
	Workers []int // worker tiers, e.g. 2, 4, 8
	Weights []int // critical-section weights (cells touched per section)
	Iters   int   // critical sections per worker
	Seed    int64 // deterministic-scheduler seed
}

// DefaultChannelSweep is the configuration the BENCH_channels.json
// artifact is generated with.
func DefaultChannelSweep() ChannelSweepConfig {
	return ChannelSweepConfig{Workers: []int{2, 4, 8}, Weights: []int{1, 8}, Iters: 150, Seed: 1}
}

// ChannelReport is the machine-readable output of the -channels sweep.
type ChannelReport struct {
	GoVersion string         `json:"go_version"`
	GitCommit string         `json:"git_commit"`
	Iters     int            `json:"iters"`
	Seed      int64          `json:"seed"`
	Points    []ChannelPoint `json:"points"`
}

func instantiateLadder(src string, workers, weight, iters int) string {
	src = strings.ReplaceAll(src, "@WORKERS@", fmt.Sprint(workers))
	src = strings.ReplaceAll(src, "@WEIGHT@", fmt.Sprint(weight))
	src = strings.ReplaceAll(src, "@ITERS@", fmt.Sprint(iters))
	return src
}

// ChannelSweep runs the channels-vs-monitors contention ladder: every
// (style, workers, weight) rung under every backend, deterministic
// schedule, and reports per-backend overhead against the detector-free
// baseline.
func ChannelSweep(cfg ChannelSweepConfig, progress func(string)) (ChannelReport, error) {
	rep := ChannelReport{
		GoVersion: runtime.Version(),
		GitCommit: gitCommit(),
		Iters:     cfg.Iters,
		Seed:      cfg.Seed,
	}
	for _, style := range channelStyles {
		for _, workers := range cfg.Workers {
			for _, weight := range cfg.Weights {
				src := instantiateLadder(style.src, workers, weight, cfg.Iters)
				var baseline float64
				for _, b := range channelBackends {
					races, elapsed, err := runProgram(src, runtimeDetector(b), cfg.Seed)
					if err != nil {
						return rep, fmt.Errorf("%s w=%d x%d %s: %w",
							style.name, workers, weight, b.Name, err)
					}
					p := ChannelPoint{
						Style:     style.name,
						Workers:   workers,
						Weight:    weight,
						Backend:   b.Name,
						Races:     races,
						ElapsedMS: float64(elapsed) / float64(time.Millisecond),
						SectionsPerSec: float64(workers*cfg.Iters) /
							elapsed.Seconds(),
					}
					if b.Name == "none" {
						baseline = p.ElapsedMS
					}
					if baseline > 0 {
						p.Overhead = p.ElapsedMS / baseline
					}
					rep.Points = append(rep.Points, p)
					progress(fmt.Sprintf("channels: %s workers=%d weight=%d %s: %d races, %.1fms (%.2fx)",
						p.Style, p.Workers, p.Weight, p.Backend, p.Races, p.ElapsedMS, p.Overhead))
				}
			}
		}
	}
	return rep, nil
}

// FormatChannels renders the sweep as the aligned table racebench
// prints alongside the JSON artifact.
func FormatChannels(rep ChannelReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Channel/monitor contention ladder (%d sections per worker, %s)\n",
		rep.Iters, rep.GoVersion)
	fmt.Fprintf(&sb, "%-10s %7s %6s %-13s %6s %10s %9s\n",
		"style", "workers", "weight", "backend", "races", "ms", "overhead")
	for _, p := range rep.Points {
		fmt.Fprintf(&sb, "%-10s %7d %6d %-13s %6d %10.1f %8.2fx\n",
			p.Style, p.Workers, p.Weight, p.Backend, p.Races, p.ElapsedMS, p.Overhead)
	}
	return sb.String()
}

// MarshalChannels serializes the report for BENCH_channels.json.
func MarshalChannels(rep ChannelReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
