"""Output checks applied to every ``run_slim`` call of the benchmark."""
from __future__ import annotations


def problems(res, entities_e, entities_i) -> list[str]:
    """What is wrong with one ``SlimResult``; empty when it passes.

    Links must be one-to-one, join an E-side entity to an I-side entity,
    and score above the stop threshold when one was selected.
    """
    links = res.links
    out = []
    if links["u"].duplicated().any() or links["v"].duplicated().any():
        out.append("links are not one-to-one")
    if not (links["u"].isin(entities_e).all() and links["v"].isin(entities_i).all()):
        out.append("a link joins entities that are not on its side")
    if res.threshold is not None and not (links["score"] > res.threshold.threshold).all():
        out.append(f"a link scores at or below the threshold {res.threshold.threshold}")
    if res.n_candidates < len(links):
        out.append("more links than candidate pairs")
    return out


def link_set(res) -> list[tuple]:
    """Links with their exact scores, in a canonical order."""
    links = res.links
    return sorted(zip(links["u"].tolist(), links["v"].tolist(), links["score"].tolist()))


def difference(a: list[tuple], b: list[tuple]) -> str:
    """Say how two ``link_set`` results differ."""
    pairs_a, pairs_b = {x[:2]: x[2] for x in a}, {x[:2]: x[2] for x in b}
    if pairs_a.keys() != pairs_b.keys():
        return f"{len(pairs_a.keys() ^ pairs_b.keys())} links differ"
    delta = max(abs(pairs_a[k] - pairs_b[k]) for k in pairs_a)
    return f"same links, scores differ by up to {delta:.3g}"
