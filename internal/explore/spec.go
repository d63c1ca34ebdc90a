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

// LoadSpec reads and validates a spec file.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("explore: %s: %w", path, err)
	}
	if s.Proto == "" || s.Cores <= 0 || s.Chunks <= 0 {
		return s, fmt.Errorf("explore: %s: incomplete spec (need proto, cores, chunks)", path)
	}
	return s.normalize(), nil
}

// Save writes the spec as indented JSON.
func (s Spec) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
