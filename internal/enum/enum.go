// Package enum is the one name vocabulary of the run-parameter enums —
// benchmarks, schemes, steppers, memory kinds, fault models and
// minimization modes. Each enum spells its values once, in its String
// method, and lists them once, in a Names table; every conversion from a
// name back to a value — CLI flags, HTTP job specs, cluster payloads and
// reproducer artifacts — goes through that table.
package enum

import (
	"flag"
	"fmt"
	"strings"
)

// Names is the name table of one enum type.
type Names[T fmt.Stringer] struct {
	// What names the type in errors ("benchmark").
	What string
	// Values lists every value a name resolves to, in the order errors
	// list them.
	Values []T
	// All is what "all" expands to in a list.
	All []T
}

// Lookup returns the value whose String matches name, ignoring case. The
// error lists the valid names.
func (n Names[T]) Lookup(name string) (T, error) {
	for _, v := range n.Values {
		if strings.EqualFold(v.String(), name) {
			return v, nil
		}
	}
	names := make([]string, len(n.Values))
	for i, v := range n.Values {
		names[i] = v.String()
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", n.What, name, strings.Join(names, ", "))
}

// List parses a comma-separated list of names (see List).
func (n Names[T]) List(list string) ([]T, error) { return List(list, n.All, n.Lookup) }

// Unmarshal sets *v to the value text names: the body of an enum's
// UnmarshalText.
func (n Names[T]) Unmarshal(v *T, text []byte) error {
	x, err := n.Lookup(string(text))
	if err == nil {
		*v = x
	}
	return err
}

// List parses a comma-separated list, resolving each entry with lookup.
// "all", in any case, expands to all; blank entries and the spaces around
// an entry are ignored.
func List[T any](list string, all []T, lookup func(string) (T, error)) ([]T, error) {
	var out []T
	for _, name := range strings.Split(list, ",") {
		switch name = strings.TrimSpace(name); {
		case name == "":
		case strings.EqualFold(name, "all"):
			out = append(out, all...)
		default:
			v, err := lookup(name)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// ListVar defines a command-line flag holding a list that parse resolves,
// so a bad name fails in flag parsing. value is the default, resolved
// into *p now.
func ListVar[T any](p *[]T, name, value, usage string, parse func(string) ([]T, error)) {
	l := &listFlag[T]{p: p, parse: parse}
	if err := l.Set(value); err != nil {
		panic(err)
	}
	flag.Var(l, name, usage)
}

type listFlag[T any] struct {
	text  string
	p     *[]T
	parse func(string) ([]T, error)
}

func (l *listFlag[T]) String() string { return l.text }

func (l *listFlag[T]) Set(s string) error {
	v, err := l.parse(s)
	if err == nil {
		*l.p, l.text = v, s
	}
	return err
}
