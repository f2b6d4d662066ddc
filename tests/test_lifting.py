"""Object-ontology lifting into atom-level IS-A links."""
import pytest

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
