package event

import (
	"encoding/json"
	"fmt"
)

// JSONAction is the serialized form of an Action. Kind uses the String
// names so trace files are greppable. A document that embeds it as a
// field marshals each action to the same bytes MarshalAction writes, in
// the same pass as the rest of the document (engine checkpoints do).
type JSONAction struct {
	Kind   string     `json:"kind"`
	Thread Tid        `json:"t"`
	Obj    Addr       `json:"o,omitempty"`
	Field  FieldID    `json:"f,omitempty"`
	Peer   Tid        `json:"peer,omitempty"`
	Reads  []Variable `json:"reads,omitempty"`
	Writes []Variable `json:"writes,omitempty"`
}

// ToJSON converts an action to its serialized form. The commit read and
// write sets are shared, not copied.
func ToJSON(a Action) JSONAction {
	return JSONAction{
		Kind:   a.Kind.String(),
		Thread: a.Thread,
		Obj:    a.Obj,
		Field:  a.Field,
		Peer:   a.Peer,
		Reads:  a.Reads,
		Writes: a.Writes,
	}
}

// MarshalAction serializes a single action as JSON (greppable kind
// names, omitted zero fields). It is the action body of every trace
// file record, of goldilocksd race reports and of engine checkpoints.
func MarshalAction(a Action) ([]byte, error) {
	return json.Marshal(ToJSON(a))
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
