"""Statically certify that a grammar pair always translates, or find out why not.

Three pairs, three outcomes:

* identity.cgp     passes the one-to-one category condition, so every
                   well-formed semantic derivation tree is guaranteed a
                   translation.
* enfr-np.cgp      has no one-to-one category map (French splits determiners
                   and nouns by gender) but passes the labeled set-valued
                   condition.
* enfr-np-broken   drops the feminine noun-phrase rule. The static check
                   pinpoints the uncovered tuple, and the witness search
                   produces the smallest semantic tree with no
                   translation.

Run from the repository root:  python3 demos/checking_completeness.py
"""

from pathlib import Path

from comptrans import (
    check_n1_completeness,
    check_nn_completeness,
    find_incompleteness_witness,
    format_tree,
    infer_n1_map,
    load_pair,
    translate_sem,
    validate_labels,
    well_formed_sem_trees,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show(title):
    print(f"\n=== {title} ===")


def main():
    show("identity pair: one-to-one categories suffice")
    identity = load_pair(FIXTURES / "identity.cgp")
    report = check_n1_completeness(identity.pair)
    print("one-to-one condition:", report.verdict)
    corr = infer_n1_map(identity.pair.target)
    for cat, entry in corr.entries:
        print(f"  inferred {cat} -> {entry.categories[0]}")

    show("English -> French: set-valued categories with labels")
    enfr = load_pair(FIXTURES / "enfr-np.cgp")
    print("one-to-one condition:", check_n1_completeness(enfr.pair).verdict, "(gender split)")
    print("labeled set condition:", check_nn_completeness(enfr.pair, enfr.correspondence).verdict)
    print("label validation (depth 6):", validate_labels(enfr.pair, enfr.correspondence).verdict)

    # the exhaustive bounded check agrees with the static verdict
    trees = well_formed_sem_trees(enfr.pair.source, 4)
    assert all(translate_sem(enfr.pair, d) for d in trees)
    print(f"all {len(trees)} derivable interlingua trees (depth <= 4) translate")

    show("broken pair: the checker's complaint is a real failure")
    broken = load_pair(FIXTURES / "enfr-np-broken.cgp")
    report = check_nn_completeness(broken.pair, broken.correspondence)
    print("labeled set condition:", report.verdict)
    for v in report.violations:
        print(f"  {v.message}")
    witness = find_incompleteness_witness(broken.pair, max_depth=3)
    print("witness:", format_tree(witness))
    print("its translations:", translate_sem(broken.pair, witness))

    show("the conditions are sufficient, not necessary")
    masc = load_pair(FIXTURES / "enfr-np-masc.cgp")
    print("labeled set condition:", check_nn_completeness(masc.pair, masc.correspondence).verdict)
    print("witness search (depth 6):", find_incompleteness_witness(masc.pair, 6))
    print("(the check fails, yet nothing the source derives can miss a translation)")


if __name__ == "__main__":
    main()
