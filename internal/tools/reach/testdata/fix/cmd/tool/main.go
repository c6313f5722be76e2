// Command tool is a root of the reach fixture.
package main

import (
	"fmt"

	"fix/internal/a"
)

func main() {
	var s a.Shape = a.New(a.Config{SetByRoot: 2})
	fmt.Println(s.Area(), s)
	k := a.Made
	if k == a.Tested {
		fmt.Println("tested")
	}
	switch k {
	case a.Tested:
	}
	switch any(s).(type) {
	case a.Probe:
		fmt.Println("probe")
	}
}
