"""Object-ontology lifting into atom-level IS-A links."""
import contextlib
import io
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalexpl import cli
from causalexpl.lifting import (KindDeclarations, ObjectOntAtom,
                                apply_restrictions, lift)
from causalexpl.model import OntAtom, Symbol


def _ont(p, args1, args2):
    return OntAtom(Symbol(p, tuple(args1)), Symbol(p, tuple(args2)))


def test_object_atom_rejects_reflexive():
    with pytest.raises(ValueError):
        ObjectOntAtom("bell", "bell")


def test_kind_sets_must_be_disjoint():
    with pytest.raises(ValueError):
        KindDeclarations(onekind=frozenset({"p"}), allkind=frozenset({"p"}))


def test_onekind_follows_specialisation():
    kinds = KindDeclarations(onekind=frozenset({"heard"}))
    assert lift([ObjectOntAtom("loud_bell", "bell")], kinds) == frozenset(
        [_ont("heard", ["loud_bell"], ["bell"])])


def test_allkind_reverses_direction():
    kinds = KindDeclarations(allkind=frozenset({"like"}))
    assert lift([ObjectOntAtom("white_car", "car")], kinds) == frozenset(
        [_ont("like", ["car"], ["white_car"])])


def test_propkind_objects_become_symbols():
    kinds = KindDeclarations(propkind=frozenset({"alpha", "beta"}))
    assert lift([ObjectOntAtom("alpha", "beta")], kinds) == frozenset(
        [OntAtom(Symbol("alpha", ()), Symbol("beta", ()))])


def test_empty_object_ontology():
    kinds = KindDeclarations(all_onekind=frozenset({"own"}))
    assert lift([], kinds) == frozenset()


def test_binary_rule_three_atoms_per_position_assignment():
    kinds = KindDeclarations(all_onekind=frozenset({"own"}))
    atoms = lift([ObjectOntAtom("tom", "student"),
                  ObjectOntAtom("book", "document")], kinds)
    # the documented triple, from (tom,student) universal / (book,document)
    # existential:
    expected = {
        _ont("own", ["tom", "book"], ["tom", "document"]),
        _ont("own", ["student", "book"], ["tom", "book"]),
        _ont("own", ["student", "book"], ["tom", "document"]),
    }
    assert expected <= atoms
    # the rule is position-symmetric, so all four ordered pair assignments
    # fire: 4 combinations x 3 atoms
    assert len(atoms) == 12


def test_restriction_recovers_exact_documented_triple():
    kinds = KindDeclarations(
        all_onekind=frozenset({"own"}), restricted=frozenset({"own"}),
        kind_par=frozenset({("own", "student", "book"),
                            ("own", "tom", "book")}))
    lifted = lift([ObjectOntAtom("tom", "student"),
                   ObjectOntAtom("book", "document")], kinds)
    report = apply_restrictions(lifted, kinds)
    assert report.atoms == frozenset({
        _ont("own", ["tom", "book"], ["tom", "document"]),
        _ont("own", ["student", "book"], ["tom", "book"]),
        _ont("own", ["student", "book"], ["tom", "document"]),
    })


def test_restriction_single_admissible_source():
    kinds = KindDeclarations(
        all_onekind=frozenset({"own"}), restricted=frozenset({"own"}),
        kind_par=frozenset({("own", "student", "book")}))
    lifted = lift([ObjectOntAtom("tom", "student"),
                   ObjectOntAtom("book", "document")], kinds)
    report = apply_restrictions(lifted, kinds)
    assert all(a.sub == Symbol("own", ("student", "book"))
               for a in report.atoms)
    assert report.atoms


def test_unrestricted_predicates_pass_through():
    kinds = KindDeclarations(onekind=frozenset({"heard"}))
    atoms = lift([ObjectOntAtom("loud_bell", "bell")], kinds)
    assert apply_restrictions(atoms, kinds).atoms == atoms


def test_restricted_predicate_without_kind_par_drops_and_warns():
    kinds = KindDeclarations(all_onekind=frozenset({"own"}),
                             restricted=frozenset({"own"}))
    lifted = lift([ObjectOntAtom("tom", "student")], kinds)
    report = apply_restrictions(lifted, kinds)
    assert report.atoms == frozenset()
    assert report.warnings


def test_atoms_never_mix_predicates_or_arity():
    kinds = KindDeclarations(onekind=frozenset({"heard"}),
                             allkind=frozenset({"like"}),
                             all_onekind=frozenset({"own"}))
    pairs = [ObjectOntAtom("a", "b"), ObjectOntAtom("c", "d"),
             ObjectOntAtom("b", "e")]
    for atom in lift(pairs, kinds):
        assert atom.sub.name == atom.super.name
        assert len(atom.sub.args) == len(atom.super.args)
        assert atom.sub != atom.super


def test_binary_count_scales_with_pair_combinations():
    kinds = KindDeclarations(all_onekind=frozenset({"own"}))
    pairs = [ObjectOntAtom("a%d" % i, "b%d" % i) for i in range(3)]
    # 3 atoms per ordered (position-1 pair, position-2 pair) combination,
    # all distinct while the pairs share no objects
    assert len(lift(pairs, kinds)) == 3 * 3 * 3


# -- the rules stated apart, on random object ontologies ----------------------

OBJECTS, PREDICATES = ("a", "b", "c", "d"), ("p", "q", "r")
KINDS = (None, "onekind", "allkind", "all_onekind")


def stated_lift(links, kinds):
    """The atoms lift + apply_restrictions keep, and the warnings, stated
    rule by rule: for each link x IS-A y, an existential p(x) IS-A p(y)
    (onekind) and a universal p(y) IS-A p(x) (allkind), and [x] IS-A [y]
    when both objects are propositions (propkind); for a binary p whose
    first argument is universal and second existential (all_onekind), each
    pair of links x1 IS-A x and y IS-A y1 gives p(x,y) IS-A p(x1,y),
    p(x1,y) IS-A p(x1,y1) and their composite.  An atom of a restricted predicate is kept
    only when its sub-concept's arguments are a kindPar pair of it."""
    def ont(p, sub, sup):
        return OntAtom(Symbol(p, sub), Symbol(p, sup))
    atoms = set()
    for x, y in links:
        atoms.update(ont(p, (x,), (y,)) for p in kinds.onekind)
        atoms.update(ont(p, (y,), (x,)) for p in kinds.allkind)
        if x in kinds.propkind and y in kinds.propkind:
            atoms.add(OntAtom(Symbol(x, ()), Symbol(y, ())))
    for p in kinds.all_onekind:
        for (x1, x), (y, y1) in itertools.product(links, repeat=2):
            atoms.update((ont(p, (x, y), (x1, y)), ont(p, (x1, y), (x1, y1)),
                          ont(p, (x, y), (x1, y1))))
    pairs = {(p, (x, y)) for p, x, y in kinds.kind_par}
    kept = {atom for atom in atoms if atom.sub.name not in kinds.restricted
            or (atom.sub.name, atom.sub.args) in pairs}
    warnings = ["restricted predicate %r has no kindPar entries; all its "
                "atoms are dropped" % p for p in sorted(kinds.restricted)
                if not any(q == p for q, _ in pairs)]
    return kept, warnings


def _kind_declarations(kind_of, propkind, restricted, kind_par):
    """Declarations giving PREDICATES[i] the kind kind_of[i] (None: none)."""
    named = {kind: frozenset(p for p, k in zip(PREDICATES, kind_of)
                             if k == kind) for kind in KINDS[1:]}
    return KindDeclarations(propkind=frozenset(propkind),
                            restricted=frozenset(restricted),
                            kind_par=frozenset(kind_par), **named)


link_strategy = st.tuples(st.sampled_from(OBJECTS),
                          st.sampled_from(OBJECTS)).filter(
    lambda link: link[0] != link[1])
links_strategy = st.sets(link_strategy, max_size=4)
kinds_strategy = st.builds(
    _kind_declarations,
    st.lists(st.sampled_from(KINDS), min_size=3, max_size=3),
    st.sets(st.sampled_from(OBJECTS)),
    st.sets(st.sampled_from(PREDICATES + OBJECTS)),
    st.sets(st.tuples(st.sampled_from(PREDICATES), st.sampled_from(OBJECTS),
                      st.sampled_from(OBJECTS)), max_size=4))


@settings(max_examples=300, deadline=None)
@given(links_strategy, kinds_strategy)
def test_lift_matches_the_stated_rules(links, kinds):
    report = apply_restrictions(
        lift([ObjectOntAtom(x, y) for x, y in links], kinds), kinds)
    assert (report.atoms, report.warnings) == stated_lift(links, kinds)


def _lifted_symbols(kinds):
    """The symbols a lifted theory may mention, each once."""
    out = ["[%s]" % o for o in sorted(kinds.propkind)]
    for p in sorted(kinds.onekind | kinds.allkind):
        out += ["[%s,%s]" % (p, o) for o in OBJECTS]
    for p in sorted(kinds.all_onekind):
        out += ["[%s,%s,%s]" % (p, o1, o2) for o1 in OBJECTS[:2]
                for o2 in OBJECTS[:2]]
    return out


@settings(max_examples=60, deadline=None)
@given(st.sets(link_strategy, min_size=1, max_size=4), kinds_strategy,
       st.data())
def test_a_lifted_report_equals_the_report_of_its_written_out_links(
        tmp_path_factory, links, kinds, data):
    lifted = _lifted_symbols(kinds)
    assume(lifted)
    causes = data.draw(st.lists(st.tuples(
        st.sampled_from(lifted + ["x", "y"]), st.sampled_from(lifted)),
        min_size=1, max_size=4))
    text = "".join(
        ["%s(%s).\n" % (kind, p) for kind in KINDS[1:]
         for p in sorted(getattr(kinds, kind))]
        + ["propkind(%s).\n" % o for o in sorted(kinds.propkind)]
        + ["restr(%s).\n" % p for p in sorted(kinds.restricted)]
        + ["kindPar(%s,%s,%s).\n" % triple for triple in sorted(kinds.kind_par)]
        + ["ont_object(%s,%s).\n" % link for link in sorted(links)]
        + ["cause(%s,%s).\n" % pair for pair in causes if pair[0] != pair[1]])
    written = "".join(sorted("%s.\n" % atom
                             for atom in stated_lift(links, kinds)[0]))
    tmp = tmp_path_factory.mktemp("lift")
    (tmp / "lifted.lp").write_text(text)
    (tmp / "written.lp").write_text(text + written)
    reports = []
    for name, flags in (("lifted.lp", ["--lift"]), ("written.lp", [])):
        out = tmp / (name + ".out")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(tmp / name), "--out", str(out)] + flags)
        reports.append((code, out.read_text() if out.exists() else None))
    assert reports[0] == reports[1]
