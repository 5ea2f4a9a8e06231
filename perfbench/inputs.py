"""Seeded inputs for the benchmark, and expected answers computed apart from bmatrix.

Nothing here imports bmatrix or the test helpers: the generators, the
query patterns and the expected answers are the benchmark's own, so a
change to the program or to a test helper cannot change what is measured
or what counts as a correct answer.
"""

from __future__ import annotations

import numpy as np

# The seven bound-slot shapes, named after the TripleStore methods that answer them.
SHAPES = ("contains", "objects", "subjects", "predicates",
          "by_subject", "by_object", "by_predicate")
SLOTS = {"contains": "spo", "objects": "sp?", "subjects": "?po",
         "predicates": "s?o", "by_subject": "s??", "by_object": "??o",
         "by_predicate": "?p?"}


def zipf_ids(rng, size, n_values, exponent=0.8):
    """Zipf-skewed ids in [1, n_values], rank-weighted with exact support."""
    weights = np.arange(1, n_values + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    return rng.choice(n_values, size=size, p=weights).astype(np.int64) + 1


def _unique_rows(s, p, o, dims):
    """Distinct (s, p, o) rows in (s, p, o) order; one int64 key per row."""
    _, n_o, n_p = dims
    key = np.unique(((s - 1) * n_p + (p - 1)) * n_o + (o - 1))
    o_ = key % n_o + 1
    rest = key // n_o
    return np.column_stack((rest // n_p + 1, rest % n_p + 1, o_))


def skewed_triples(rng, n, n_subjects, n_objects, n_predicates, exponent=0.8):
    """n distinct triples with Zipf-skewed subjects, predicates and objects."""
    need = int(n * 1.5) + 32
    s = zipf_ids(rng, need, n_subjects, exponent)
    p = zipf_ids(rng, need, n_predicates, exponent)
    o = zipf_ids(rng, need, n_objects, exponent)
    tr = _unique_rows(s, p, o, (n_subjects, n_objects, n_predicates))
    return tr[rng.permutation(len(tr))[:n]]


def clustered_triples(rng, n, n_predicates=1000, n_clusters=1024,
                      cluster_width=192):
    """n distinct triples whose subjects and objects fall in shared clusters."""
    need = int(n * 1.3)
    cluster = rng.integers(0, n_clusters, need)
    s_off = np.minimum(rng.geometric(0.04, need) - 1, cluster_width - 1)
    o_off = np.minimum(rng.geometric(0.04, need) - 1, cluster_width - 1)
    s = cluster * cluster_width + s_off + 1
    o = cluster * cluster_width + o_off + 1
    p = zipf_ids(rng, need, n_predicates, exponent=0.8)
    side = n_clusters * cluster_width
    tr = _unique_rows(s, p, o, (side, side, n_predicates))
    return tr[rng.permutation(len(tr))[:n]]


# -- N-Triples ---------------------------------------------------------------

XSD = "http://www.w3.org/2001/XMLSchema#"


def _iri(i: int) -> tuple[str, str]:
    """(canonical term, N-Triples spelling) of node i as an IRI."""
    form = i % 4
    if form == 0:
        text = f"http://example.org/resource/R{i}"
        return text, f"<{text}>"
    if form == 1:
        return f"http://example.org/café/{i}", f"<http://example.org/caf\\u00E9/{i}>"
    if form == 2:
        text = f"http://example.org/data#item{i}"
        return text, f"<{text}>"
    text = f"https://example.com/people/p{i}/profile"
    return text, f"<{text}>"


def _bnode(i: int) -> tuple[str, str]:
    label = f"_:g{i}.v2" if i % 3 == 0 else f"_:b{i}"
    return label, label


def _literal(j: int) -> tuple[str, str]:
    """(canonical term, N-Triples spelling) of literal j; six kinds in turn."""
    kind = j % 6
    if kind == 0:
        text = f'"plain value {j}"'
        return text, text
    if kind == 1:
        tag = ("en", "fr", "de-CH")[j % 3]
        text = f'"word {j}"@{tag}'
        return text, text
    if kind == 2:
        text = f'"{j}"^^<{XSD}integer>'
        return text, text
    if kind == 3:
        lexical = f'say "hi" {j}\\ and\ttab\nnewline'
        spelled = f'say \\"hi\\" {j}\\\\ and\\ttab\\nnewline'
        return f'"{lexical}"@en', f'"{spelled}"@en'
    if kind == 4:
        lexical = f"naïve {j} ☃ résumé"
        spelled = f"na\\u00EFve {j} \\u2603 résumé"
        return f'"{lexical}"', f'"{spelled}"'
    lexical = f"smile \U0001F600 {j}.5"
    spelled = f"smile \\U0001F600 {j}.5"
    return f'"{lexical}"^^<{XSD}string>', f'"{spelled}"^^<{XSD}string>'


def ntriples_dataset(rng, n_statements, n_iris, n_bnodes, n_literals,
                     n_predicates, subject_exponent=0.6, duplicate_share=0.02):
    """Generated N-Triples statements and the generator's own term table.

    Subjects are IRIs or blank nodes; objects are IRIs or blank nodes
    (shared with subjects, 40%) or literals (60%); all roles Zipf-skewed,
    subjects less so (`subject_exponent`, against 0.8 for the others), as
    entities have a bounded number of properties and popular objects do not.
    A `duplicate_share` of the statements repeat earlier ones, so the
    store must collapse them.

    Returns (lines, terms, distinct) where terms = (node terms, predicate
    terms, literal terms) and distinct is an (n, 3) array of distinct
    (subject node, predicate, object) indexes; object indexes at or above
    the node count address literal n - node count.
    """
    n_nodes = n_iris + n_bnodes
    n_distinct = n_statements - int(n_statements * duplicate_share)
    need = int(n_distinct * 1.4) + 32
    s = zipf_ids(rng, need, n_nodes, subject_exponent) - 1
    p = zipf_ids(rng, need, n_predicates) - 1
    as_node = rng.random(need) < 0.4
    o = np.where(as_node, zipf_ids(rng, need, n_nodes) - 1,
                 n_nodes + zipf_ids(rng, need, n_literals) - 1)
    tr = _unique_rows(s + 1, p + 1, o + 1, (n_nodes, n_nodes + n_literals,
                                           n_predicates)) - 1
    distinct = tr[rng.permutation(len(tr))[:n_distinct]]
    repeats = distinct[rng.integers(0, n_distinct, n_statements - n_distinct)]
    statements = np.concatenate((distinct, repeats))
    statements = statements[rng.permutation(len(statements))]

    nodes = [_iri(i) if i < n_iris else _bnode(i) for i in range(n_nodes)]
    preds = [(f"http://example.org/vocab#p{k}", f"<http://example.org/vocab#p{k}>")
             for k in range(n_predicates)]
    lits = [_literal(j) for j in range(n_literals)]
    obj_spell = [sp for _, sp in nodes] + [sp for _, sp in lits]
    lines = ["# generated N-Triples input", ""]
    lines.extend(f"{nodes[a][1]} {preds[b][1]} {obj_spell[c]} ."
                 for a, b, c in statements.tolist())
    terms = ([t for t, _ in nodes], [t for t, _ in preds], [t for t, _ in lits])
    return lines, terms, distinct


class TermIds:
    """Ids by the dictionary layout the store documents.

    Terms that are both subject and object share ids 1..n_so; the other
    subject-only and object-only terms follow, each pool sorted; predicates
    are sorted on their own. Computed from the generator's term table.
    """

    def __init__(self, terms, distinct):
        nodes, preds, lits = terms
        n_nodes = len(nodes)
        s_idx, p_idx, o_idx = distinct[:, 0], distinct[:, 1], distinct[:, 2]

        def obj_term(i):
            return nodes[i] if i < n_nodes else lits[i - n_nodes]

        subjects = {nodes[i] for i in np.unique(s_idx).tolist()}
        objects = {obj_term(i) for i in np.unique(o_idx).tolist()}
        shared = sorted(subjects & objects)
        self.subject_pool = shared + sorted(subjects - objects)
        self.object_pool = shared + sorted(objects - subjects)
        self.predicate_pool = sorted({preds[i] for i in np.unique(p_idx).tolist()})
        self.n_shared = len(shared)
        s_id = {t: i + 1 for i, t in enumerate(self.subject_pool)}
        o_id = {t: i + 1 for i, t in enumerate(self.object_pool)}
        p_id = {t: i + 1 for i, t in enumerate(self.predicate_pool)}
        self.triples = np.array(
            [(s_id[nodes[a]], p_id[preds[b]], o_id[obj_term(c)])
             for a, b, c in distinct.tolist()], dtype=np.int64).reshape(-1, 3)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(subjects, objects, predicates), the order TripleStore.build takes."""
        return (len(self.subject_pool), len(self.object_pool),
                len(self.predicate_pool))

    def pattern_terms(self, pattern):
        s, p, o = pattern
        return (None if s is None else self.subject_pool[s - 1],
                None if p is None else self.predicate_pool[p - 1],
                None if o is None else self.object_pool[o - 1])

    def answer_terms(self, shape, answer):
        """An id answer of `shape` spelled with the generator's terms."""
        S, P, O = self.subject_pool, self.predicate_pool, self.object_pool
        if shape == "contains":
            return answer
        one = {"objects": O, "subjects": S, "predicates": P}.get(shape)
        if one is not None:
            return [one[i - 1] for i in answer]
        first, second = {"by_subject": (P, O), "by_object": (S, P),
                         "by_predicate": (S, O)}[shape]
        return [(first[a - 1], second[b - 1]) for a, b in answer]


# -- query patterns ------------------------------------------------------------


def stratified(rng, order, count):
    """`count` items of `order`: the middle one of each of `count` equal strata."""
    edges = np.arange(count + 1) * len(order) // count
    return order[rng.permutation((edges[:-1] + edges[1:]) // 2)]


def query_patterns(rng, triples, dims, counts, is_stored):
    """Per shape, `counts[shape]` (s, p, o) patterns with None for unbound slots.

    Bound slots come from a stored triple, so heavy terms are queried in
    proportion to their use. (?,p,?) draws predicate ids uniformly so its
    batch is not dominated by the heaviest predicates. Both draws are
    stratified: the triples (or predicate ids) are ordered by how many
    triples the shape's bound terms occur in, ties in the seeded order of
    the triples, and the middle of each of `count` equal strata is taken,
    so every batch follows the same quantiles of light and heavy terms and
    its cost depends little on the seed. Half the (s,p,o) probes are
    absent triples: a stored (s, p) with an object it is not stored with.
    """
    n_o, n_p = dims[1], dims[2]
    s, p, o = triples[:, 0], triples[:, 1], triples[:, 2]
    deg_s, deg_o = np.bincount(s)[s], np.bincount(o)[o]
    weight = {"contains": deg_s, "objects": deg_s, "subjects": deg_o,
              "predicates": deg_s + deg_o, "by_subject": deg_s,
              "by_object": deg_o}
    out = {}
    for shape in SHAPES:
        count = counts[shape]
        if shape == "by_predicate":
            per_p = np.bincount(p, minlength=n_p + 1)[1:]
            ids = stratified(rng, np.argsort(per_p, kind="stable") + 1, count)
            out[shape] = [(None, int(x), None) for x in ids]
            continue
        rows = triples[stratified(rng, np.argsort(weight[shape], kind="stable"),
                                  count)].tolist()
        slots = SLOTS[shape]
        pats = []
        for k, (ts, tp, to) in enumerate(rows):
            if shape == "contains" and k % 2:
                while is_stored((ts, tp, to)):
                    to = int(rng.integers(1, n_o + 1))
            pats.append((ts if slots[0] == "s" else None,
                         tp if slots[1] == "p" else None,
                         to if slots[2] == "o" else None))
        out[shape] = pats
    return out


# -- expected answers ------------------------------------------------------------


class Expected:
    """Answers to every shape from sorted copies of the distinct triples.

    The store lays triples out in (p, o, s) column order and returns each
    list ascending by column, so each answer below is a slice of one of
    three sort orders of the same triples.
    """

    def __init__(self, triples, dims):
        t = np.asarray(triples, dtype=np.int64)
        s, p, o = t[:, 0] - 1, t[:, 1] - 1, t[:, 2] - 1
        n_s, n_o, n_p = dims
        self.n_o, self.n_p = n_o, n_p
        spo = (s * n_p + p) * n_o + o
        order = np.argsort(spo)
        self.keys = spo[order]
        self.by_s = t[order]                                  # (s, p, o) order
        self.by_o = t[np.argsort((o * n_p + p) * n_s + s)]   # (o, p, s) order
        self.by_p = t[np.argsort((p * n_o + o) * n_s + s)]   # (p, o, s): columns

    def _key(self, s, p, o):
        return ((s - 1) * self.n_p + (p - 1)) * self.n_o + (o - 1)

    @staticmethod
    def _slice(rows, col, value):
        lo, hi = np.searchsorted(rows[:, col], [value, value + 1])
        return rows[lo:hi]

    def answer(self, shape, pattern):
        s, p, o = pattern
        if shape == "contains":
            key = self._key(s, p, o)
            i = np.searchsorted(self.keys, key)
            return bool(i < self.keys.size and self.keys[i] == key)
        if shape in ("objects", "predicates", "by_subject"):
            rows = self._slice(self.by_s, 0, s)
            if shape == "objects":
                return rows[rows[:, 1] == p, 2].tolist()
            if shape == "predicates":
                return rows[rows[:, 2] == o, 1].tolist()
            return list(zip(rows[:, 1].tolist(), rows[:, 2].tolist()))
        if shape in ("subjects", "by_object"):
            rows = self._slice(self.by_o, 2, o)
            if shape == "subjects":
                return rows[rows[:, 1] == p, 0].tolist()
            return list(zip(rows[:, 0].tolist(), rows[:, 1].tolist()))
        rows = self._slice(self.by_p, 1, p)
        return list(zip(rows[:, 0].tolist(), rows[:, 2].tolist()))


def result_count(answer) -> int:
    """Results in one answer: a membership test counts as one when true."""
    if isinstance(answer, bool):
        return int(answer)
    return len(answer)
