package main

// recordedDigests are the SHA-256 digests of each workload's result at
// the default seed: the canonical sim.Metrics JSON of one run, or for
// artifact-fig7-quick the rendered table text. A change that only
// speeds the simulator up must leave them unchanged; a change to the
// model records new ones (each operation line prints its digest).
var recordedDigests = map[string]string{
	"detailed-static7-mcf": "7d584fa8b88b61e23387036a7c37077663a645cbf078285e9e7c81af06ef317a",
	"sampled-rrm-mix2":     "ea68578993c3f500288e061f3140fcba65a49db280d3c662b9b5fc7129d61e6c",
	"artifact-fig7-quick":  "b249c8f48aef1b1cc257943f40f2c534cacac1155aff798f7e5dc59f72ee460d",
}
