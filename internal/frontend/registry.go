// The instruction-prefetcher registry: named, config-constructible
// I-side backends, one internal/registry instance like the filter and
// D-side generator zoos. Backends are built from a validated
// config.FrontendConfig via New; the registry is open so tests and
// downstream code can add experimental backends, and the
// "fetch-directed" alias resolves to "nextline" so either spelling
// builds the same machine.
package frontend

import (
	"repro/internal/config"
	"repro/internal/registry"
)

// Constructor builds one instruction prefetcher from a front-end
// configuration.
type Constructor func(cfg config.FrontendConfig) (Prefetcher, error)

// Backends is the instruction-prefetcher zoo's registry.
var Backends = registry.New[config.IPrefetchKind, Constructor]("frontend", "instruction prefetcher")

// Kinds returns every registered backend kind, sorted. Aliases
// (fetch-directed) are not listed; they resolve to their canonical
// kinds.
func Kinds() []string { return Backends.Kinds() }

// New builds the backend kind names from cfg. An unregistered kind
// reports the registered alternatives.
func New(kind config.IPrefetchKind, cfg config.FrontendConfig) (Prefetcher, error) {
	ctor, err := Backends.Lookup(kind)
	if err != nil {
		return nil, err
	}
	return ctor(cfg)
}

func init() {
	Backends.Register(config.IPrefetchNextLine, func(cfg config.FrontendConfig) (Prefetcher, error) {
		return NewNextLine(cfg.Degree, cfg.L1I.LineBytes)
	})
	Backends.Register(config.IPrefetchMANA, func(cfg config.FrontendConfig) (Prefetcher, error) {
		return NewMANA(cfg.ManaRecordsLog2, cfg.ManaRegionLog2, cfg.Degree, cfg.L1I.LineBytes)
	})
}
