// Command probe stands for the benchmark module.
package main

import "fixture/internal/lib"

func main() { lib.BenchOnly() }
