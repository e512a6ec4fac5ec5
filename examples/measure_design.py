"""Measure an RTL design through the full uComplexity pipeline.

Takes the bundled RAT designs (the paper's Section 4.1 rename units),
parses the Verilog-2001 sources, elaborates them, applies the Section 2.2
accounting procedure, runs the ASIC and FPGA synthesis flows, and prints
the Table 3 metric vector -- then shows what happens when the accounting
procedure is switched off.

Run with::

    python examples/measure_design.py
"""

from repro import AccountingPolicy, Engine
from repro.core.workflow import ComponentSpec
from repro.designs.catalog import CATALOG
from repro.designs.loader import load_sources


def show(measurement) -> None:
    for name in sorted(measurement.metrics):
        print(f"    {name:8s} = {measurement.metrics[name]:10.1f}")


def measure(engine, spec, sources, policy):
    """One component through the engine: a batch of one, raising."""
    component = ComponentSpec(spec.label, sources, spec.top, policy)
    batch = engine.measure_components([component], strict=True)
    return batch.results[spec.label].unwrap()


def main() -> None:
    engine = Engine()
    for spec in CATALOG["RAT"].components:
        sources = tuple(load_sources(spec))
        print(f"\n=== {spec.label} (top: {spec.top}) ===")
        print(f"  sources: {', '.join(s.name for s in sources)}")

        with_acct = measure(engine, spec, sources,
                            AccountingPolicy.recommended())
        print("  measured specializations (accounting procedure ON):")
        for module, params in with_acct.specializations:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            print(f"    {module}({rendered})")
        print("  metrics:")
        show(with_acct)

        without = measure(engine, spec, sources, AccountingPolicy.disabled())
        print("  without the accounting procedure:")
        print(f"    instances measured: {len(without.specializations)} "
              f"(vs {len(with_acct.specializations)})")
        for metric in ("Cells", "FanInLC", "Nets", "FFs"):
            a = with_acct.metrics[metric]
            b = without.metrics[metric]
            print(f"    {metric:8s} {a:8.0f} -> {b:8.0f} "
                  f"({b / max(a, 1):.1f}x)")
        print("    (LoC and Stmts are source-text metrics; unchanged)")


if __name__ == "__main__":
    main()
