// The benchmark is a module of its own so the repo's build and tier-1
// tests do not depend on it; its path sits under "taurus/" so it may
// import the product's internal packages for the per-layer probes.
module taurus/benchmark

go 1.24

require taurus v0.0.0

replace taurus => ../
