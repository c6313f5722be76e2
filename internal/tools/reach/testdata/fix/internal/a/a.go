// Package a holds one declaration per reachability rule.
package a

// Shape is an interface the root calls through.
type Shape interface{ Area() int }

// Square is the one Shape.
type Square struct{ cfg Config }

// New returns a Square with cfg's defaults filled in.
func New(cfg Config) Square { return Square{cfg.withDefaults()} }

// Area is selected only through Shape.
func (s Square) Area() int { return s.cfg.SetByRoot * s.cfg.SetInTest * s.cfg.Defaulted }

// Perimeter is selected by nothing.
func (s Square) Perimeter() int { return 4 * s.Area() }

// String is reached because fmt dispatches through fmt.Stringer.
func (s Square) String() string { return "square" }

// Aliased is re-exported by a facade alias.
type Aliased struct{}

// M is reached by nothing: the alias does not root it.
func (Aliased) M() {}

// Config is config-shaped: a field counts only when reached code writes it.
type Config struct {
	SetByRoot int // written by the root
	SetInTest int // written only by a test
	Defaulted int // written only where this package fills in its default
}

func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 4
	}
	return c
}

// OnlyTest is called only from a test.
func OnlyTest() int { return 1 }

// Unused is named by nothing.
const Unused = 7

// OnlyBench is called only from bench/.
func OnlyBench() {}

// Kind is an enum of which roots produce one value.
type Kind int

const (
	Made   Kind = iota // a root assigns it
	Tested             // roots only compare against it
)

// Probe is a type roots only type-switch on.
type Probe struct{}
