package mj

import (
	"strings"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/jrt"
)

// logCfg is detCfg with a logging policy, so racy channel programs run
// to completion and the test can count reports.
func logCfg(seed int64) jrt.Config {
	return jrt.Config{Detector: core.New(), Policy: jrt.Log, Mode: jrt.Deterministic, Seed: seed}
}

// TestChanWordsAsMemberNames pins the contextual-keyword rule: the
// channel operation words stay legal as field and method names
// (pre-channel programs declare methods like close()), because no
// channel form can begin in member position.
func TestChanWordsAsMemberNames(t *testing.T) {
	src := `
class Conn {
    int close;
    boolean send;
    void recv() { print("recv method"); }
    int make(int x) { return x + this.close; }
}
class Main {
    void main() {
        Conn c = new Conn();
        c.close = 4;
        c.send = true;
        c.recv();
        print(c.make(38), c.send);
    }
}`
	races, out := runMJ(t, src, logCfg(1))
	if races != 0 {
		t.Fatalf("races = %d, want 0", races)
	}
	if out != "recv method\n42 true\n" {
		t.Fatalf("out = %q", out)
	}
	fixpoint(t, src)
}

func TestParseChanForms(t *testing.T) {
	prog := MustParse(`
class Main {
	chan<int> c;
	chan<chan<boolean>> nested;
	chan<int>[] ring;
	void main() {
		chan<int> d = make(chan<int>, 4);
		send(d, 1);
		int x = recv(d);
		close(d);
		select {
		case send(d, 2) { }
		case recv(d) { }
		case int v = recv(d) { x = v; }
		default { x = 0; }
		}
	}
}
`)
	m := prog.Classes[0].Methods[0]
	var sends, closes, selects, recvs, makes int
	WalkStmts(m.Body, func(s Stmt) {
		switch st := s.(type) {
		case *SendStmt:
			sends++
		case *CloseStmt:
			closes++
		case *SelectStmt:
			selects++
			if len(st.Arms) != 3 || st.Default == nil {
				t.Errorf("select parsed %d arms, default %v", len(st.Arms), st.Default != nil)
			}
			if !st.Arms[0].Send || st.Arms[1].Send || st.Arms[2].Bind != "v" {
				t.Errorf("select arm shapes wrong: %+v", st.Arms)
			}
		}
	})
	WalkExprs(m.Body, func(e Expr) {
		switch e.(type) {
		case *RecvExpr:
			recvs++
		case *MakeChanExpr:
			makes++
		}
	})
	if sends != 1 || closes != 1 || selects != 1 || makes != 1 || recvs != 1 {
		t.Errorf("node counts: send %d close %d select %d make %d recv %d", sends, closes, selects, makes, recvs)
	}
	if got := prog.Classes[0].Fields[1].Type.String(); got != "chan<chan<boolean>>" {
		t.Errorf("nested chan type = %q", got)
	}
}

func TestParseChanErrors(t *testing.T) {
	cases := []string{
		`class C { void m() { chan c; } }`,                                         // missing <elem>
		`class C { void m() { chan<int> c = make(int); } }`,                        // make of non-chan
		`class C { void m() { send(c); } }`,                                        // missing value
		`class C { void m() { select { } } }`,                                      // empty select
		`class C { chan<int> c; void m() { select { default { } default { } } } }`, // two defaults
		`class C { chan<int> c; void m() { select { recv(c) { } } } }`,             // missing case keyword
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestPrinterFixpointChannels(t *testing.T) {
	fixpoint(t, `
class Main {
	chan<int> shared;
	void pump(chan<int> c, int n) {
		for (int i = 0; i < n; i = i + 1) { send(c, i); }
		close(c);
	}
	void main() {
		chan<int> c = make(chan<int>, 2);
		chan<chan<boolean>> meta = make(chan<chan<boolean>>);
		thread t = spawn this.pump(c, 5);
		int sum = 0;
		select {
		case send(c, 9) { sum = 9; }
		case int v = recv(c) { sum = sum + v; }
		case recv(c) { }
		default { sum = -1; }
		}
		close(meta);
		join(t);
	}
}
`)
}

func TestCheckChanTypes(t *testing.T) {
	prog := MustCheck(`
class Main {
	void main() {
		chan<double> c = make(chan<double>, 1);
		send(c, 3);
		double d = recv(c);
	}
}
`)
	var sendElem string
	WalkStmts(prog.ClassByName("Main").Method("main").Body, func(s Stmt) {
		if st, ok := s.(*SendStmt); ok {
			sendElem = st.Elem.String()
		}
	})
	if sendElem != "double" {
		t.Errorf("send elem type = %q, want double (int widens on send)", sendElem)
	}
}

func TestCheckChanErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`class C { void m() { send(1, 2); } }`, "requires a channel"},
		{`class C { void m() { int x = recv(3); } }`, "requires a channel"},
		{`class C { void m() { close(true); } }`, "requires a channel"},
		{`class C { void m() { chan<int> c = make(chan<int>, true); } }`, "capacity must be int"},
		{`class C { void m() { chan<int> c = make(chan<boolean>); } }`, "cannot initialize"},
		{`class C { void m() { chan<int> c = make(chan<int>); send(c, true); } }`, "cannot send"},
		{`class C { void m() { chan<int> c = make(chan<int>); boolean b = recv(c); } }`, "cannot initialize"},
		{`class C { void m() { chan<D> c; } }`, "unknown class"},
		{`class C { chan<int> c; void m() { select { case boolean b = recv(c) { } } } }`, "cannot bind"},
		{`class C { chan<int> c; void m() { select { case send(c, true) { } } } }`, "cannot send"},
		{`class C { chan<int> c; void m() { select { case recv(c) { x = 1; } } } }`, "undefined variable"},
		{`class C { chan<int> c; void m() { select { case int v = recv(c) { } } int y = v; } }`, "undefined variable"},
	}
	for _, c := range cases {
		errContains(t, c.src, c.want)
	}
}

// chanAtomicCases are channel programs the atomic-block restrictions
// refuse, with a substring of the error.
var chanAtomicCases = []struct{ src, want string }{
	{`class C { chan<int> c; void m() { atomic { send(c, 1); } } }`, "send inside atomic"},
	{`class C { chan<int> c; void m() { atomic { int x = recv(c); } } }`, "receive inside atomic"},
	{`class C { chan<int> c; void m() { atomic { close(c); } } }`, "close inside atomic"},
	{`class C { chan<int> c; void m() { atomic { select { default { } } } } }`, "select inside atomic"},
	{`class C { void m() { atomic { chan<int> c = make(chan<int>); } } }`, "make(chan) inside atomic"},
	{`class C { chan<int> c; void helper() { send(c, 1); } void m() { atomic { helper(); } } }`, "sends on a channel"},
	{`class C { chan<int> c; int helper() { return recv(c); } void m() { atomic { int x = helper(); } } }`, "receives from a channel"},
}

func TestCheckChanAtomicRestrictions(t *testing.T) {
	for _, c := range chanAtomicCases {
		errContains(t, c.src, c.want)
	}
}

// TestInterpChanHandoff: the message-passing idiom is race-free through
// the channel edge, and the payload arrives intact.
func TestInterpChanHandoff(t *testing.T) {
	races, out := runMJ(t, `
class Box { int v; }
class Main {
	Box b;
	void producer(chan<int> c) {
		b.v = 41;
		send(c, 1);
	}
	void main() {
		b = new Box();
		chan<int> c = make(chan<int>);
		thread t = spawn this.producer(c);
		int go = recv(c);
		b.v = b.v + go;
		print(b.v);
		join(t);
	}
}
`, logCfg(3))
	if races != 0 {
		t.Errorf("handoff raced: %d reports", races)
	}
	if out != "42\n" {
		t.Errorf("output = %q, want 42", out)
	}
}

// TestInterpChanNoSyncRaces: drop the channel from the same program
// shape and the race comes back — the edge was doing the work.
func TestInterpChanNoSyncRaces(t *testing.T) {
	races, _ := runMJ(t, `
class Box { int v; }
class Main {
	Box b;
	chan<int> c;
	void producer() {
		b.v = 41;
		send(c, 1);
	}
	void main() {
		b = new Box();
		c = make(chan<int>);
		thread t = spawn this.producer();
		b.v = 1;
		int go = recv(c);
		join(t);
	}
}
`, logCfg(3))
	if races != 1 {
		t.Errorf("races = %d, want exactly 1 (write before recv is unordered)", races)
	}
}

// TestInterpChanFIFOAndDrain: buffered FIFO order, and recv from a
// closed, drained channel yields the element zero value non-blockingly.
func TestInterpChanFIFOAndDrain(t *testing.T) {
	races, out := runMJ(t, `
class Main {
	void pump(chan<int> c) {
		for (int i = 1; i <= 5; i = i + 1) { send(c, i * 10); }
		close(c);
	}
	void main() {
		chan<int> c = make(chan<int>, 2);
		thread t = spawn this.pump(c);
		int sum = 0;
		for (int i = 0; i < 5; i = i + 1) { sum = sum * 10 + recv(c) / 10; }
		print(sum);
		print(recv(c), recv(c));
		chan<string> s = make(chan<string>);
		close(s);
		print(recv(s) + "empty");
		join(t);
	}
}
`, logCfg(7))
	if races != 0 {
		t.Errorf("unexpected races: %d", races)
	}
	want := "12345\n0 0\nempty\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

// TestInterpSelect: a ready arm binds the received value; with nothing
// ready the default fires.
func TestInterpSelect(t *testing.T) {
	_, out := runMJ(t, `
class Main {
	void main() {
		chan<int> c = make(chan<int>, 1);
		select {
		case int v = recv(c) { print("got", v); }
		default { print("empty"); }
		}
		send(c, 7);
		select {
		case int v = recv(c) { print("got", v); }
		default { print("empty"); }
		}
		select {
		case send(c, 8) { print("sent"); }
		default { print("full"); }
		}
		select {
		case send(c, 9) { print("sent again"); }
		default { print("full"); }
		}
	}
}
`, logCfg(5))
	want := "empty\ngot 7\nsent\nfull\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

// TestInterpSelectDefaultNoEdge: a fired default synchronizes nothing,
// so the cross-thread write pair stays racy.
func TestInterpSelectDefaultNoEdge(t *testing.T) {
	races, _ := runMJ(t, `
class Box { int v; }
class Main {
	Box b;
	chan<int> full;
	void worker() {
		select {
		case send(full, 2) { }
		default { }
		}
		b.v = 2;
	}
	void main() {
		b = new Box();
		full = make(chan<int>, 1);
		send(full, 1);
		thread t = spawn this.worker();
		b.v = 1;
		join(t);
	}
}
`, logCfg(9))
	if races != 1 {
		t.Errorf("races = %d, want exactly 1 (default must not create an edge)", races)
	}
}

func TestInterpSendOnClosedErrors(t *testing.T) {
	_, _, err := RunSource(`
class Main {
	void main() {
		chan<int> c = make(chan<int>);
		close(c);
		send(c, 1);
	}
}
`, detCfg(1))
	if err == nil || !strings.Contains(err.Error(), "closed channel") {
		t.Errorf("err = %v, want send-on-closed-channel error", err)
	}
}

func TestInterpNullChannel(t *testing.T) {
	_, _, err := RunSource(`
class Main { void main() { chan<int> c = null; send(c, 1); } }
`, detCfg(1))
	if err == nil || !strings.Contains(err.Error(), "null") {
		t.Errorf("err = %v, want null dereference", err)
	}
}

func TestInterpNegativeCapacity(t *testing.T) {
	_, _, err := RunSource(`
class Main { void main() { chan<int> c = make(chan<int>, 0 - 2); } }
`, detCfg(1))
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("err = %v, want invalid-capacity error", err)
	}
}

// TestInterpChanOfChan: channels are first-class values — they travel
// through fields, arrays, and other channels.
func TestInterpChanOfChan(t *testing.T) {
	races, out := runMJ(t, `
class Main {
	void serve(chan<chan<int>> requests) {
		chan<int> reply = recv(requests);
		send(reply, 99);
	}
	void main() {
		chan<chan<int>> requests = make(chan<chan<int>>, 1);
		thread t = spawn this.serve(requests);
		chan<int> reply = make(chan<int>, 1);
		send(requests, reply);
		print(recv(reply));
		join(t);
	}
}
`, logCfg(11))
	if races != 0 {
		t.Errorf("unexpected races: %d", races)
	}
	if out != "99\n" {
		t.Errorf("output = %q, want 99", out)
	}
}
