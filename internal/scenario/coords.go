package scenario

import (
	"fmt"
	"reflect"
	"strconv"

	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/wal"
)

// CoordKind says how a coordinate enters identities, headers and rerun
// commands.
type CoordKind int

const (
	// CoordName coordinates are registry names that are always spelled out.
	CoordName CoordKind = iota
	// CoordOption coordinates are registry names that are left out — and
	// stored as "" — at their default, so a scenario, a cell identity and a
	// rerun command are byte-identical with and without the axis in the
	// spec.
	CoordOption
	// CoordSize coordinates are integers.
	CoordSize
)

// Coord is one row of the coordinate table: everything the toolkit knows
// about one sweep axis. A coordinate's spellings are columns of its row —
// the axis `net-faults` is the id key `netfaults` and the flag
// `-net-faults` — and so is the one function that canonicalises its values,
// which is why a preset, a reordered grammar spelling and the canonical
// form of one fault spec name the same grid cell everywhere.
type Coord struct {
	// Axis is the sweep-spec axis (and JSON) name, the key the report
	// header prints, and — dash-prefixed — the elin flag.
	Axis string
	// Key is the coordinate's key in a CellID.
	Key string
	// Field is the Go field that holds the value in every struct carrying
	// coordinates: Scenario and ScenarioInfo here, and campaign's Axes (as
	// a list), Match (as a predicate) and Point. Engine alone has no field
	// in the scenario structs: the engine is what runs them.
	Field string
	// Default is the canonical value an omitted or empty one resolves to.
	Default string
	Kind    CoordKind
	// canon canonicalises a non-empty value; nil accepts any spelling as
	// written.
	canon func(string) (string, error)
}

// Coords is the coordinate table, in the axis order grids expand in
// (engine slowest, seed fastest) and identities are written in.
var Coords = []Coord{
	{Axis: "engine", Key: "engine", Field: "Engine", Default: "sim", canon: registry.Engine},
	// Implementation names are engine-dependent and resolve per run.
	{Axis: "impl", Key: "impl", Field: "Impl", Default: DefaultImpl},
	{Axis: "workload", Key: "workload", Field: "Workload", Default: DefaultWorkload, canon: checked(registry.ValidateWorkload)},
	{Axis: "policy", Key: "policy", Field: "Policy", Default: DefaultPolicy, canon: checked(func(v string) error {
		_, err := registry.Policy(v)
		return err
	})},
	{Axis: "faults", Key: "faults", Field: "Faults", Default: "none", Kind: CoordOption, canon: func(v string) (string, error) {
		sp, err := registry.Faults(v)
		return sp.String(), err
	}},
	{Axis: "net-faults", Key: "netfaults", Field: "NetFaults", Default: "none", Kind: CoordOption, canon: func(v string) (string, error) {
		sp, err := registry.NetFaults(v)
		return sp.String(), err
	}},
	// "none" writes no commit log; "never" writes one and never fsyncs it —
	// distinct coordinates, the second still pays the write path.
	{Axis: "wal-sync", Key: "walsync", Field: "WALSync", Default: "none", Kind: CoordOption, canon: func(v string) (string, error) {
		if v == "none" {
			return v, nil
		}
		pol, err := wal.ParseSyncPolicy(v)
		return pol.String(), err
	}},
	{Axis: "monitor", Key: "monitor", Field: "Monitor", Default: "full", Kind: CoordOption, canon: func(v string) (string, error) {
		ms, err := registry.MonitorSpec(v)
		return ms.String(), err
	}},
	{Axis: "procs", Key: "procs", Field: "Procs", Default: strconv.Itoa(DefaultProcs), Kind: CoordSize, canon: positive},
	{Axis: "ops", Key: "ops", Field: "Ops", Default: strconv.Itoa(DefaultOps), Kind: CoordSize, canon: positive},
	{Axis: "tolerance", Key: "tol", Field: "Tolerance", Default: "0", Kind: CoordSize},
	{Axis: "seed", Key: "seed", Field: "Seed", Default: "0", Kind: CoordSize},
}

// checked lifts a syntax check into a canonicaliser that keeps the
// spelling.
func checked(check func(string) error) func(string) (string, error) {
	return func(v string) (string, error) { return v, check(v) }
}

// positive accepts the counts of things that must exist.
func positive(v string) (string, error) {
	if n, err := strconv.Atoi(v); err != nil || n < 1 {
		return "", fmt.Errorf("want an integer >= 1")
	}
	return v, nil
}

// Flag is the elin flag that sets the coordinate.
func (c Coord) Flag() string { return "-" + c.Axis }

// Canon resolves a value to the coordinate's canonical spelling: the
// default for "", the canonicaliser's answer otherwise.
func (c Coord) Canon(v string) (string, error) {
	if v == "" {
		return c.Default, nil
	}
	if c.canon == nil {
		return v, nil
	}
	name, err := c.canon(v)
	if err != nil {
		return "", fmt.Errorf("%s %q: %w", c.Axis, v, err)
	}
	return name, nil
}

// Stored maps a canonical value to the form the coordinate's field holds:
// "" for an option at its default, the value itself otherwise.
func (c Coord) Stored(name string) string {
	if c.Kind == CoordOption && name == c.Default {
		return ""
	}
	return name
}

// Get reads the coordinate out of the struct v points to, as text: a name
// as itself, a size in decimal, and "" for a Match predicate that is not
// set.
func (c Coord) Get(v any) string {
	return text(reflect.ValueOf(v).Elem().FieldByName(c.Field))
}

// List reads the coordinate's axis — a slice field — out of the struct v
// points to, each value as Get would give it.
func (c Coord) List(v any) []string {
	f := reflect.ValueOf(v).Elem().FieldByName(c.Field)
	out := make([]string, f.Len())
	for i := range out {
		out[i] = text(f.Index(i))
	}
	return out
}

func text(f reflect.Value) string {
	switch f.Kind() {
	case reflect.String:
		return f.String()
	case reflect.Pointer:
		if f.IsNil() {
			return ""
		}
		return text(f.Elem())
	default:
		return strconv.FormatInt(f.Int(), 10)
	}
}

// Set writes a value Get or Canon produced into the struct v points to.
func (c Coord) Set(v any, val string) {
	f := reflect.ValueOf(v).Elem().FieldByName(c.Field)
	if f.Kind() == reflect.String {
		f.SetString(val)
		return
	}
	n, _ := strconv.ParseInt(val, 10, 64) // sizes are written by FormatInt
	f.SetInt(n)
}

// name is the coordinate as reports and identities of s carry it: the
// stored form of its canonical spelling. An unresolvable value keeps its
// raw spelling; execution rejects it with a real error.
func (c Coord) name(s *Scenario) string {
	raw := c.Get(s)
	name, err := c.Canon(raw)
	if err != nil {
		return raw
	}
	return c.Stored(name)
}
