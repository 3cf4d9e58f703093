package bench

import (
	"fmt"
	"strings"

	"goldilocks/internal/core"
	"goldilocks/internal/detectors"
	"goldilocks/internal/event"
	"goldilocks/internal/scenarios"
)

// Figure6 renders the lockset evolution of LS(o.data) on the Example 2
// execution, reproducing Figure 6 of the paper.
func Figure6() string {
	sc := scenarios.Ownership()
	v := scenarios.Var(scenarios.IntBox, scenarios.FieldData)
	return renderEvolution("Figure 6. Evolution of LS(o.data) on Example 2", sc, v, map[int]string{
		0:  "tmp1 = new IntBox()",
		1:  "tmp1.data = 0",
		2:  "acq(ma)",
		3:  "a = tmp1",
		4:  "rel(ma)",
		5:  "acq(ma)",
		6:  "tmp2 = a",
		7:  "acq(mb)",
		8:  "b = tmp2",
		9:  "rel(mb)",
		10: "rel(ma)",
		11: "acq(mb)",
		12: "b.data = 2",
		13: "tmp3 = b",
		14: "rel(mb)",
		15: "tmp3.data = 3",
	})
}

// Figure7 renders the lockset evolution of LS(o.data) on the Example 3
// execution, reproducing Figure 7 of the paper.
func Figure7() string {
	sc := scenarios.TxList()
	v := scenarios.Var(scenarios.Foo, scenarios.FieldData)
	return renderEvolution("Figure 7. Evolution of LS(o.data) on Example 3", sc, v, map[int]string{
		0: "t1 = new Foo()",
		1: "t1.data = 42",
		2: "T1: atomic { t1.nxt = head; head = t1 }",
		3: "T2: atomic { for iter = head .. iter.data = 0 }",
		4: "T3: atomic { t3 = head; head = t3.nxt }",
		5: "t3.data (read)",
		6: "t3.data++ (write)",
	})
}

func renderEvolution(title string, sc scenarios.Scenario, v event.Variable, labels map[int]string) string {
	ref, _ := detectors.Lookup(detectors.All(), "spec")
	spec := ref.New(core.Options{}).(*core.SpecEngine)
	var sb strings.Builder
	fmt.Fprintln(&sb, title)
	for i := 0; i < sc.Trace.Len(); i++ {
		a := sc.Trace.At(i)
		races := spec.Step(a)
		ls := spec.WriteLockset(v)
		lsStr := "∅"
		if ls != nil {
			lsStr = ls.String()
		}
		label := labels[i]
		if label == "" {
			label = a.String()
		}
		verdict := ""
		if a.Accesses(v) {
			verdict = "  (no race)"
			for _, r := range races {
				if r.Var == v {
					verdict = "  ** RACE **"
				}
			}
		}
		fmt.Fprintf(&sb, "  %-44s LS(o.data) = %s%s\n", label+"  ["+a.Thread.String()+"]", lsStr, verdict)
	}
	return sb.String()
}
