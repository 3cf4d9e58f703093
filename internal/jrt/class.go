// Package jrt is a race- and transaction-aware managed runtime: the
// repository's stand-in for the paper's modified Kaffe JVM. It provides
// a Java-like object model — objects with data and volatile fields,
// reentrant monitors with wait/notify, fork/join threads, arrays — and
// funnels every action through a pluggable dynamic race detector. When
// an access is about to complete an actual data race the runtime throws
// a DataRaceException in the accessing thread, which the program may
// catch and handle; if no DataRaceException is thrown, the execution is
// sequentially consistent (and strongly atomic when the stm package's
// transactions are used).
//
// Two execution modes are provided: a deterministic mode in which a
// seeded cooperative scheduler chooses the interleaving (used by tests
// and examples that must reproduce a specific race), and a free mode in
// which threads are ordinary goroutines (used by the benchmarks, where
// wall-clock overhead is the measurement).
package jrt

import (
	"fmt"

	"goldilocks/internal/event"
)

// Value is any value storable in an object field: Go scalars, strings,
// *Object references, or nil.
type Value any

// FieldDecl declares one field of a class.
type FieldDecl struct {
	Name string
	// Volatile marks the field as a synchronization variable: accesses
	// are never data races and create happens-before edges.
	Volatile bool
}

// Class describes an object layout. Create classes with
// Runtime.DefineClass; the runtime interns them by name.
type Class struct {
	Name   string
	Fields []FieldDecl

	byName map[string]event.FieldID
}

// FieldID returns the field id for name; ok is false if no such field.
func (c *Class) FieldID(name string) (event.FieldID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MustFieldID is FieldID for fields known to exist.
func (c *Class) MustFieldID(name string) event.FieldID {
	id, ok := c.byName[name]
	if !ok {
		panic(fmt.Sprintf("jrt: class %s has no field %q", c.Name, name))
	}
	return id
}

// arrayClass is the internal class used for arrays; elements are
// addressed by index, not by field declarations.
var arrayClass = &Class{Name: "[]"}
