package event

import (
	"encoding/json"
	"fmt"
)

// jsonAction is the serialized form of an Action. Kind uses the String
// names so trace files are greppable.
type jsonAction struct {
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
// file record, of goldilocksd race reports and of engine checkpoints.
func MarshalAction(a Action) ([]byte, error) {
	return json.Marshal(jsonAction{
		Kind:   a.Kind.String(),
		Thread: a.Thread,
		Obj:    a.Obj,
		Field:  a.Field,
		Peer:   a.Peer,
		Reads:  a.Reads,
		Writes: a.Writes,
	})
}

// UnmarshalAction parses an action serialized by MarshalAction.
func UnmarshalAction(data []byte) (Action, error) {
	var ja jsonAction
	if err := json.Unmarshal(data, &ja); err != nil {
		return Action{}, fmt.Errorf("event: decoding action: %w", err)
	}
	a, ok := ja.action()
	if !ok {
		return Action{}, fmt.Errorf("event: unknown action kind %q", ja.Kind)
	}
	return a, nil
}

// action converts the serialized form back to an Action; ok is false
// when the kind name is not one this reader knows (version skew, not
// corruption — the callers report the two differently).
func (ja jsonAction) action() (Action, bool) {
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
