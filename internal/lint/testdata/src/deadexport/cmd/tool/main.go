// Command tool is a main package: nothing imports it, so its exports
// are never findings.
package main

import (
	"fmt"

	"dreamsim/internal/lint/testdata/src/deadexport/user"
)

// Exported is unused, but main packages are out of scope.
func Exported() {}

func main() { fmt.Println(user.Total()) }
