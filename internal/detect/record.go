package detect

import (
	"encoding/json"
	"os"

	"goldilocks/internal/obs"
)

// RaceRecord is one race in a -stats-json document (cmd/goldilocks and
// cmd/racereplay write the same record).
type RaceRecord struct {
	Var        string          `json:"var"`
	Access     string          `json:"access"`
	Pos        int             `json:"pos"`
	Prev       string          `json:"prev,omitempty"`
	Provenance *obs.Provenance `json:"provenance,omitempty"`
}

// Records returns the -stats-json record of each race, in order.
func Records(races []Race) []RaceRecord {
	out := make([]RaceRecord, len(races))
	for i, r := range races {
		out[i] = RaceRecord{Var: r.Var.String(), Access: r.Access.String(), Pos: r.Pos, Provenance: r.Prov}
		if r.HasPrev {
			out[i].Prev = r.Prev.String()
		}
	}
	return out
}

// WriteStatsJSON writes a -stats-json document to path ("-" is stdout)
// as two-space indented JSON.
func WriteStatsJSON(path string, doc any) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	if w != os.Stdout {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
