package a

import "testing"

func TestOnlyTest(t *testing.T) {
	if OnlyTest() != 1 || New(Config{SetInTest: 1}).Area() != 0 {
		t.Fatal("fixture")
	}
}
