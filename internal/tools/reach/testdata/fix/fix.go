// Package fix is the reach fixture's facade, a root.
package fix

import "fix/internal/a"

// Aliased re-exports a.Aliased: the alias reaches the type, not its methods.
type Aliased = a.Aliased
