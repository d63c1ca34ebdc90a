// Spec files: a bare Spec is the "starting state" hand-off format between
// tools — sbsoak writes one for every failed sweep point, and sbcheck -spec
// explores from it (the checker cannot reproduce a fault-injected run, but it
// can exhaust the same protocol/workload shape the failure came from, with
// unordered mode standing in for the injector's delivery jitter).
package explore

import (
	"encoding/json"
	"fmt"
	"os"
)

// LoadSpec reads and validates a spec file. Fields the file omits keep
// their DefaultSpec values.
func LoadSpec(path string) (Spec, error) {
	s := DefaultSpec("")
	if err := load(path, &s, &s); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// load unmarshals the file at path into v and validates spec, which v's
// decoding fills: the one validation every spec and schedule file passes.
func load(path string, v any, spec *Spec) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("explore: %s: %w", path, err)
	}
	if err := spec.validate(); err != nil {
		return fmt.Errorf("explore: %s: %w", path, err)
	}
	return nil
}

// Save writes the spec as indented JSON.
func (s Spec) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
