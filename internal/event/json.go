package event

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// JSONAction is the serialized form of an Action, as decoders read it.
// Kind uses the String names so trace files are greppable. AppendJSON
// writes exactly what json.Marshal of this struct would.
type JSONAction struct {
	Kind   string     `json:"kind"`
	Thread Tid        `json:"t"`
	Obj    Addr       `json:"o,omitempty"`
	Field  FieldID    `json:"f,omitempty"`
	Peer   Tid        `json:"peer,omitempty"`
	Reads  []Variable `json:"reads,omitempty"`
	Writes []Variable `json:"writes,omitempty"`
}

// MarshalAction serializes a single action as JSON (greppable kind
// names, omitted zero fields). It is the action body of every trace
// file record and of goldilocksd race reports; engine checkpoints embed
// the same bytes through AppendJSON.
func MarshalAction(a Action) []byte {
	return AppendJSON(nil, a)
}

// AppendJSON appends to dst the JSON form of a — the bytes json.Marshal
// of the corresponding JSONAction would produce — in one pass and
// without reflection.
func AppendJSON(dst []byte, a Action) []byte {
	// Kind names are fixed ASCII identifiers (or "Kind(n)"), which
	// encoding/json quotes without escaping.
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, a.Kind.String()...)
	dst = append(dst, `","t":`...)
	dst = strconv.AppendInt(dst, int64(a.Thread), 10)
	if a.Obj != NilAddr {
		dst = append(dst, `,"o":`...)
		dst = strconv.AppendInt(dst, int64(a.Obj), 10)
	}
	if a.Field != 0 {
		dst = append(dst, `,"f":`...)
		dst = strconv.AppendInt(dst, int64(a.Field), 10)
	}
	if a.Peer != NoTid {
		dst = append(dst, `,"peer":`...)
		dst = strconv.AppendInt(dst, int64(a.Peer), 10)
	}
	if len(a.Reads) > 0 {
		dst = appendJSONVars(append(dst, `,"reads":`...), a.Reads)
	}
	if len(a.Writes) > 0 {
		dst = appendJSONVars(append(dst, `,"writes":`...), a.Writes)
	}
	return append(dst, '}')
}

// appendJSONVars appends vs as encoding/json writes a []Variable.
func appendJSONVars(dst []byte, vs []Variable) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Obj":`...)
		dst = strconv.AppendInt(dst, int64(v.Obj), 10)
		dst = append(dst, `,"Field":`...)
		dst = strconv.AppendInt(dst, int64(v.Field), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// UnmarshalAction parses an action serialized by MarshalAction.
func UnmarshalAction(data []byte) (Action, error) {
	var ja JSONAction
	if err := json.Unmarshal(data, &ja); err != nil {
		return Action{}, fmt.Errorf("event: decoding action: %w", err)
	}
	return ja.Action()
}

// Action converts the serialized form back to an Action. A kind name
// this reader does not know is an error.
func (ja JSONAction) Action() (Action, error) {
	a, ok := ja.action()
	if !ok {
		return Action{}, fmt.Errorf("event: unknown action kind %q", ja.Kind)
	}
	return a, nil
}

// action converts the serialized form back to an Action; ok is false
// when the kind name is not one this reader knows (version skew, not
// corruption — the stream reader reports the two differently).
func (ja JSONAction) action() (Action, bool) {
	k, ok := kindByName[ja.Kind]
	if !ok || k == KindInvalid {
		return Action{}, false
	}
	return Action{
		Kind:   k,
		Thread: ja.Thread,
		Obj:    ja.Obj,
		Field:  ja.Field,
		Peer:   ja.Peer,
		Reads:  ja.Reads,
		Writes: ja.Writes,
	}, true
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()
