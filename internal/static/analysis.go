package static

import (
	"fmt"
	"strings"

	"goldilocks/internal/mj"
)

// Result is the output both analyses share: which access sites, and
// which abstract variables, are statically guaranteed race-free. The
// per-site mask SafeSites is the one form the runtime consumes (the
// analog of the paper's class-file access-flag bits), passed as
// mj.InterpConfig.SiteNoCheck.
type Result struct {
	Analysis string
	// SafeSites is indexed by access-site id.
	SafeSites []bool
	// SafeFields maps abstract variables proven race-free, for reports.
	SafeFields map[FieldKey]bool
	// Facts retained for reporting.
	Facts *Facts
}

// SafeSiteCount returns how many access sites were proven race-free.
func (r *Result) SafeSiteCount() int {
	n := 0
	for _, ok := range r.SafeSites {
		if ok {
			n++
		}
	}
	return n
}

// Apply returns the per-site mask for mj.InterpConfig.SiteNoCheck. It
// leaves prog unmodified: the mask is the only channel from the
// analyses to the runtime.
func (r *Result) Apply(prog *mj.Program) []bool { return r.SafeSites }

// mayRace decides whether two sites on the same abstract variable can
// form an extended race: they conflict (at least one write, and the
// transactional exemption does not apply), they may happen in parallel,
// and no must-alias guard protects the pair.
func (f *Facts) mayRace(a, b *Site) bool {
	// Conflict structure (read/write and transaction cases of the
	// extended-race definition).
	switch {
	case a.Atomic && b.Atomic:
		return false // commit/commit pairs are exempt
	case !a.Write && !b.Write:
		return false // read/read never conflicts
	}
	// A non-escaping fresh allocation is unreachable from any other
	// access path, so its sites cannot race with anything.
	if a.LocalOnly || b.LocalOnly {
		return false
	}
	if !f.mhp(a, b) {
		return false
	}
	// Must-alias lock guard: both sites hold the accessed object's own
	// monitor.
	if a.SelfGuarded && b.SelfGuarded {
		return false
	}
	return true
}

// mhp reports whether the two sites may execute concurrently: reachable
// from two distinct thread roots, or from one root that may have several
// live instances.
func (f *Facts) mhp(a, b *Site) bool {
	if len(a.Roots) == 0 || len(b.Roots) == 0 {
		return false // unreachable code
	}
	for ra := range a.Roots {
		for rb := range b.Roots {
			if ra != rb {
				return true
			}
			if f.RootMulti[ra] {
				return true
			}
		}
	}
	return false
}

// Chord runs the automatic may-race pair analysis: every pair of sites
// on the same abstract variable is tested with mayRace; sites in no racy
// pair are safe, and fields none of whose sites are in a racy pair are
// safe.
func Chord(prog *mj.Program) *Result {
	facts := BuildFacts(prog)
	r := &Result{
		Analysis:   "chord",
		SafeSites:  make([]bool, facts.NumSites),
		SafeFields: make(map[FieldKey]bool),
		Facts:      facts,
	}
	racySite := make(map[int]bool)
	racyField := make(map[FieldKey]bool)
	for key, sites := range facts.FieldSites {
		for i, a := range sites {
			for _, b := range sites[i:] {
				if facts.mayRace(a, b) {
					racySite[a.ID] = true
					racySite[b.ID] = true
					racyField[key] = true
				}
			}
		}
	}
	for key := range facts.FieldSites {
		if !racyField[key] {
			r.SafeFields[key] = true
		}
	}
	for _, s := range facts.Sites {
		if !racySite[s.ID] {
			r.SafeSites[s.ID] = true
		}
	}
	return r
}

// Rcc runs the RccJava-style discipline analysis. A field is race-free
// when one of the verified disciplines covers every one of its sites —
// always self-guarded, always transactional, never written, reachable
// from at most one single-instance thread root, or always through
// non-escaping locals — or when a pragma of the form
//
//	//@ race_free <Class>.<field> trusted
//	//@ race_free array:<elemtype> trusted
//
// asserts it (the analog of RccJava's programmer annotations, used in
// the paper for the barrier-phased variables the type system cannot
// express). Pragmas with reason guarded_by_this, atomic_only,
// read_only, or thread_local are verified against the corresponding
// discipline and rejected if they do not hold.
func Rcc(prog *mj.Program) (*Result, error) {
	facts := BuildFacts(prog)
	r := &Result{
		Analysis:   "rcc",
		SafeSites:  make([]bool, facts.NumSites),
		SafeFields: make(map[FieldKey]bool),
		Facts:      facts,
	}

	trusted := make(map[FieldKey]bool)
	for _, pragma := range prog.Pragmas {
		parts := strings.Fields(pragma.Text)
		if len(parts) == 0 || parts[0] != "race_free" {
			continue
		}
		if len(parts) != 3 {
			return nil, fmt.Errorf("%v: malformed pragma %q (want race_free <target> <reason>)", pragma.Pos, pragma.Text)
		}
		key, err := parseTarget(parts[1])
		if err != nil {
			return nil, fmt.Errorf("%v: %v", pragma.Pos, err)
		}
		reason := parts[2]
		switch reason {
		case "trusted":
			trusted[key] = true
		case "guarded_by_this", "atomic_only", "read_only", "thread_local":
			if !disciplineHolds(facts, key, reason) {
				return nil, fmt.Errorf("%v: pragma %q does not hold", pragma.Pos, pragma.Text)
			}
			trusted[key] = true
		default:
			return nil, fmt.Errorf("%v: unknown pragma reason %q", pragma.Pos, reason)
		}
	}

	for key, sites := range facts.FieldSites {
		if trusted[key] || fieldSafeByDiscipline(facts, sites) {
			r.SafeFields[key] = true
			for _, s := range sites {
				r.SafeSites[s.ID] = true
			}
		}
	}
	// Local-only sites are safe regardless of their field's verdict.
	for _, s := range facts.Sites {
		if s.LocalOnly {
			r.SafeSites[s.ID] = true
		}
	}
	return r, nil
}

func parseTarget(s string) (FieldKey, error) {
	if elem, ok := strings.CutPrefix(s, "array:"); ok {
		return FieldKey{Class: "[]", Field: elem}, nil
	}
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return FieldKey{}, fmt.Errorf("malformed pragma target %q", s)
	}
	return FieldKey{Class: s[:dot], Field: s[dot+1:]}, nil
}

func disciplineHolds(facts *Facts, key FieldKey, reason string) bool {
	sites := facts.FieldSites[key]
	if len(sites) == 0 {
		return true
	}
	for _, s := range sites {
		if s.LocalOnly {
			continue
		}
		switch reason {
		case "guarded_by_this":
			if !s.SelfGuarded {
				return false
			}
		case "atomic_only":
			if !s.Atomic {
				return false
			}
		case "read_only":
			if s.Write {
				return false
			}
		case "thread_local":
			if !singleRoot(facts, s) {
				return false
			}
		}
	}
	return true
}

func singleRoot(facts *Facts, s *Site) bool {
	if len(s.Roots) == 0 {
		return true
	}
	if len(s.Roots) > 1 {
		return false
	}
	for r := range s.Roots {
		if facts.RootMulti[r] {
			return false
		}
	}
	return true
}

// fieldSafeByDiscipline checks the automatic disciplines.
func fieldSafeByDiscipline(facts *Facts, sites []*Site) bool {
	for _, reason := range []string{"guarded_by_this", "atomic_only", "read_only"} {
		ok := true
		for _, s := range sites {
			if s.LocalOnly {
				continue
			}
			switch reason {
			case "guarded_by_this":
				ok = ok && s.SelfGuarded
			case "atomic_only":
				ok = ok && s.Atomic
			case "read_only":
				ok = ok && !s.Write
			}
		}
		if ok {
			return true
		}
	}
	// Thread-confinement: all sites from one single-instance root.
	var root RootID = -1
	for _, s := range sites {
		if s.LocalOnly {
			continue
		}
		if !singleRoot(facts, s) {
			return false
		}
		for r := range s.Roots {
			if root == -1 {
				root = r
			} else if root != r {
				return false
			}
		}
	}
	return true
}
