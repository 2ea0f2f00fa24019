package lib

import "testing"

func TestCallers(t *testing.T) {
	h := &Helper{}
	if TestOnly() != 1 || h.Next() != nil || Make(2).Peek() != 2 || Limit != 3 ||
		Registry["x"] != 0 || (Circle{R: 1}).Area(2) != 2 {
		t.Fatal("unexpected")
	}
	Kept()
}
