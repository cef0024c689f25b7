// Package registry is the one constructor registry behind every backend
// zoo: the pollution filters (internal/filter), the D-side prefetch
// generators (internal/prefetch) and the I-side instruction prefetchers
// (internal/frontend). Each zoo holds one Of instance keyed by its
// config kind type; aliases resolve through the kind's Canonical form,
// so either spelling finds the same constructor.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Kind is a registry key: a string kind whose Canonical form resolves
// aliases ("table-pa" → "pa").
type Kind[K any] interface {
	~string
	Canonical() K
}

// Of maps canonical kinds to constructors of type C. The zero value is
// not usable; build one with New. Safe for concurrent use.
type Of[K Kind[K], C any] struct {
	pkg, noun string

	mu    sync.RWMutex
	ctors map[K]C
}

// New returns an empty registry. pkg and noun word the lookup error:
// "<pkg>: no registered <noun> for kind …".
func New[K Kind[K], C any](pkg, noun string) *Of[K, C] {
	return &Of[K, C]{pkg: pkg, noun: noun, ctors: map[K]C{}}
}

// Register adds (or replaces) the constructor under kind's canonical
// form, so aliases resolve to the same constructor.
func (r *Of[K, C]) Register(kind K, ctor C) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctors[kind.Canonical()] = ctor
}

// Registered reports whether kind (or its canonical form) has a
// registered constructor.
func (r *Of[K, C]) Registered(kind K) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.ctors[kind.Canonical()]
	return ok
}

// Kinds returns every registered kind, sorted. Aliases are not listed;
// they resolve to their canonical kinds.
func (r *Of[K, C]) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ctors))
	//pflint:allow determinism/maprange key collection; the result is sorted below
	for k := range r.ctors {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

// Lookup returns the constructor for kind. An unregistered kind reports
// the registered alternatives; the list is built only on that path.
func (r *Of[K, C]) Lookup(kind K) (C, error) {
	r.mu.RLock()
	ctor, ok := r.ctors[kind.Canonical()]
	r.mu.RUnlock()
	if !ok {
		return ctor, fmt.Errorf("%s: no registered %s for kind %q (registered: %v)", r.pkg, r.noun, kind, r.Kinds())
	}
	return ctor, nil
}

// Resolve maps a kind name to its canonical spelling and reports whether
// it is registered — the string-keyed view the sweep layer validates
// request and flag names through.
func (r *Of[K, C]) Resolve(name string) (string, bool) {
	canon := K(name).Canonical()
	return string(canon), r.Registered(canon)
}
