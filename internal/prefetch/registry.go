// The generator registry: named, config-constructible prefetch
// generators, one internal/registry instance like the filter and
// instruction-prefetcher zoos. Backends are built from a
// config.PrefetchConfig via New; the registry is open so tests and
// downstream code can add experimental generators, and aliases
// ("correlation", "ghb-pc-delta") resolve to their canonical kinds so
// either spelling builds the same machine.
package prefetch

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/registry"
)

// Env carries the pieces of the machine a generator may need beyond its
// own tables. Generators that don't use a field ignore it.
type Env struct {
	// L2 is the second-level cache; the shadow-directory generator keeps
	// its per-line state there, exactly where the paper puts it.
	L2 *cache.Cache
}

// Constructor builds one generator from a prefetch configuration.
type Constructor func(cfg config.PrefetchConfig, env Env) (Prefetcher, error)

// Generators is the generator zoo's registry.
var Generators = registry.New[config.PrefetchKind, Constructor]("prefetch", "generator")

// Kinds returns every registered generator kind, sorted. Aliases
// (correlation, ghb-pc-delta) are not listed; they resolve to their
// canonical kinds.
func Kinds() []string { return Generators.Kinds() }

// New builds the generator kind names from cfg. An unregistered kind
// reports the registered alternatives.
func New(kind config.PrefetchKind, cfg config.PrefetchConfig, env Env) (Prefetcher, error) {
	ctor, err := Generators.Lookup(kind)
	if err != nil {
		return nil, err
	}
	return ctor(cfg, env)
}

func init() {
	Generators.Register(config.PrefetchNSP, func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewNSP(cfg.Degree)
	})
	Generators.Register(config.PrefetchSDP, func(_ config.PrefetchConfig, env Env) (Prefetcher, error) {
		return NewSDP(env.L2)
	})
	Generators.Register(config.PrefetchStride, func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewStride(cfg.StrideEntries)
	})
	Generators.Register(config.PrefetchCorrelation, func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewCorrelation(cfg.CorrelationSets, cfg.CorrelationAssoc)
	})
	Generators.Register(config.PrefetchBerti, func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewBerti(cfg.BertiHistoryLog2, cfg.BertiLatencyLog2, cfg.BertiShadowLog2)
	})
	Generators.Register(config.PrefetchGHB, func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewGHB(cfg.GHBLog2, cfg.GHBIndexLog2, cfg.GHBMaxDegree)
	})
}
