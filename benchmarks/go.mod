// The benchmark is a module of its own so that the repository's build file
// and test suite stay as they are; the replace directive lets it import the
// parent module's internal packages from source.
module teapot/benchmarks

go 1.22

require teapot v0.0.0

replace teapot => ../
