package backend

import (
	"fmt"
	"sort"

	"choir/internal/choir"
	"choir/internal/lora"
)

// factories is the fixed table of backends, one line each; the gateway
// ladder and the CLIs name rungs by these keys. A factory must be cheap
// enough to call per worker (construction cost is amortized by Pool, not by
// the factory).
var factories = map[string]func(lora.Params) (Backend, error){
	"choir":      func(p lora.Params) (Backend, error) { return newDecoderBackend("choir", choir.DefaultConfig(p)) },
	"relaxed":    func(p lora.Params) (Backend, error) { return newDecoderBackend("relaxed", RelaxedConfig(p)) },
	"strongest":  func(p lora.Params) (Backend, error) { return newDecoderBackend("strongest", StrongestConfig(p)) },
	"slotshift":  func(p lora.Params) (Backend, error) { return newSlotshift(p) },
	"superposed": func(p lora.Params) (Backend, error) { return newSuperposed(p) },
}

// New builds the named backend for the given PHY configuration.
func New(name string, p lora.Params) (Backend, error) {
	f, ok := factories[name]
	if !ok {
		return nil, errUnknown(name)
	}
	b, err := f(p)
	if err != nil {
		return nil, fmt.Errorf("backend: %s: %w", name, err)
	}
	return b, nil
}

func errUnknown(name string) error {
	return fmt.Errorf("backend: unknown backend %q (registered: %v)", name, Names())
}

// Names returns every backend name in sorted order — the stable iteration
// order used by the comparison harness, the CLI help strings, and the
// gateway's per-backend chaos subtests.
func Names() []string {
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
