package registry

import (
	"fmt"
	"strings"

	"github.com/elin-go/elin/internal/check"
)

// MonitorDoc is one monitor spec form with its one-line description, as
// `elin list monitors` prints it.
type MonitorDoc struct {
	Name string
	Doc  string
}

// monitorForms is the monitor spec vocabulary in display order: concrete
// names first, parameterized grammar templates after.
var monitorForms = []MonitorDoc{
	{"full", "sequential exhaustive windowed checking (the default)"},
	{"sample:N", "check every Nth window, escalate back to full on a near-violation"},
	{"none", "record only, no online checking"},
}

// MonitorNames lists the monitor spec vocabulary.
func MonitorNames() []string {
	names := make([]string, len(monitorForms))
	for i, f := range monitorForms {
		names[i] = f.Name
	}
	return names
}

// MonitorDocs returns the monitor spec forms with their one-line docs.
func MonitorDocs() []MonitorDoc {
	return append([]MonitorDoc(nil), monitorForms...)
}

// MonitorSpec resolves a monitor spec by name ("" means full). It is the
// registry face of check.ParseMonitorSpec, with the vocabulary echoed on
// error like the other registry resolvers.
func MonitorSpec(name string) (check.MonitorSpec, error) {
	ms, err := check.ParseMonitorSpec(strings.TrimSpace(name))
	if err != nil {
		return check.MonitorSpec{}, fmt.Errorf("registry: unknown monitor spec %q (known: %s): %w",
			name, strings.Join(MonitorNames(), ", "), err)
	}
	return ms, nil
}
