// Command bench is the reach fixture's benchmark, a root that freezes
// what only it reaches.
package main

import "fix/internal/a"

func main() { a.OnlyBench() }
