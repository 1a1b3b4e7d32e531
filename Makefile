# Convenience wrapper over dune. `make verify` is the tier-1 gate.

.PHONY: all check test verify bench fmt clean

all:
	dune build

check:
	dune build @check

test:
	dune runtest

verify:
	dune build @check
	dune build
	dune runtest

bench:
	python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0

# Requires the ocamlformat binary on PATH (not bundled in every
# container); config lives in .ocamlformat.
fmt:
	dune fmt

clean:
	dune clean
