package gpu

import "errors"

// ErrBudget is wrapped by budget-aware admissions that reject an op
// whose estimated completion already exceeds the caller's remaining
// deadline budget — refused at the door instead of queued to die.
var ErrBudget = errors.New("gpu: admission exceeds deadline budget")

// IsBudget reports whether err is a deadline-budget admission rejection.
func IsBudget(err error) bool { return errors.Is(err, ErrBudget) }
