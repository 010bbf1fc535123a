import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpaths.errors import BudgetExceededError
from gridpaths.gridtiling import (
    GTAssignment,
    GridTilingInstance,
    check_gt_solution,
    generate_planted,
    generate_random,
    solve_gt_brute_force,
    validate_instance,
)
from gridpaths.reduction import reduce

from . import exhaustive_k2n2
from ._oracles import gt_solutions_exhaustive


def full_sets(k, n):
    return {
        (x, y): {(a, b) for a in range(1, n + 1) for b in range(1, n + 1)}
        for x in range(1, k + 1)
        for y in range(1, k + 1)
    }


class TestValidateInstance:
    def test_minimal_instance_is_valid(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(1, 1)}})
        assert validate_instance(inst) == []

    def test_pair_coordinate_above_n_is_reported(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(3, 1)}})
        violations = validate_instance(inst)
        assert len(violations) == 1
        assert "(3,1)" in violations[0]

    def test_missing_cell_is_reported(self):
        sets = full_sets(2, 2)
        del sets[(2, 2)]
        violations = validate_instance(GridTilingInstance(k=2, N=2, sets=sets))
        assert any("missing" in v and "(2, 2)" in v for v in violations)

    def test_unexpected_cell_is_reported(self):
        sets = full_sets(1, 2)
        sets[(5, 5)] = {(1, 1)}
        violations = validate_instance(GridTilingInstance(k=1, N=2, sets=sets))
        assert any("unexpected" in v for v in violations)

    def test_bad_parameters(self):
        assert validate_instance(GridTilingInstance(k=0, N=2, sets={}))
        assert validate_instance(GridTilingInstance(k=1, N=1, sets={(1, 1): set()}))

    # each value was coerced by int() when the instance was made, and passed
    @pytest.mark.parametrize(
        "k, sets, fragment",
        [
            (1, {(1, 1): {(1.9, 2)}}, "pair (1.9, 2) is not a pair of integers"),
            (1, {("1", 1): {(1, 1)}}, "cell key ('1', 1) is not a pair of integers"),
            (True, {(1, 1): {(1, 1)}}, "k must be a positive integer, got True"),
        ],
    )
    def test_non_int_value_is_reported_not_coerced(self, k, sets, fragment):
        inst = GridTilingInstance(k=k, N=2, sets=sets)
        assert inst.sets == {cell: frozenset(pairs) for cell, pairs in sets.items()}
        assert any(fragment in v for v in validate_instance(inst))
        for solve in (solve_gt_brute_force, reduce):
            with pytest.raises(ValueError, match="invalid instance"):
                solve(inst)

    def test_mixed_cell_key_types_are_reported_without_sorting_error(self):
        sets = {(1, 1): {(1, 1)}, ("2", 1): {(1, 1)}, (1.0, 2): set()}
        violations = validate_instance(GridTilingInstance(k=2, N=2, sets=sets))
        assert sum("is not a pair of integers" in v for v in violations) == 2
        assert sum("missing set" in v for v in violations) == 3

    @pytest.mark.parametrize("given_cells, counted", [(6, None), (5, "missing sets for 1 more cells")])
    def test_ten_missing_cells_are_named_and_the_rest_counted(self, given_cells, counted):
        cells = sorted(product(range(1, 5), repeat=2))
        sets = {cell: {(1, 1)} for cell in cells[-given_cells:]}
        violations = validate_instance(GridTilingInstance(k=4, N=2, sets=sets))
        named = [f"missing set for cell {cell}" for cell in cells[:10]]
        assert violations == named + ([counted] if counted else [])

    def test_full_violation_list_of_an_instance_with_several_faults(self):
        # only the offending pairs are sorted; the list and its order are the ones a full sort gave
        sets = {
            (1, 1): {(1, 1), (2, 2.5), (4, 1), (10, 1), (0, 2), (2, 5), (1.5, 1), ("a", 2), (True, 3), (1, 2, 3)},
            (1, 2): {(3, 3), (3, -1)},
            ("1", 2): {(1, 1)},
            (3, 1): {(1, 1)},
            (2, 1): set(),
        }
        assert validate_instance(GridTilingInstance(k=2, N=3, sets=sets)) == [
            "cell key ('1', 2) is not a pair of integers",
            "missing set for cell (2, 2)",
            "unexpected cell (3, 1) outside [1,2]^2",
            "cell (1, 1): pair ('a', 2) is not a pair of integers",
            "cell (1, 1): pair (1, 2, 3) is not a pair of integers",
            "cell (1, 1): pair (1.5, 1) is not a pair of integers",
            "cell (1, 1): pair (2, 2.5) is not a pair of integers",
            "cell (1, 1): pair (True, 3) is not a pair of integers",
            "cell (1, 1): pair (0,2) outside [1,3]^2",
            "cell (1, 1): pair (2,5) outside [1,3]^2",
            "cell (1, 1): pair (4,1) outside [1,3]^2",
            "cell (1, 1): pair (10,1) outside [1,3]^2",
            "cell (1, 2): pair (3,-1) outside [1,3]^2",
        ]


class TestCheckSolution:
    def test_single_cell_has_no_monotonicity_constraints(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(2, 1)}})
        assert check_gt_solution(inst, GTAssignment({(1, 1): (2, 1)}))

    def test_constant_assignment_is_monotone(self):
        inst = GridTilingInstance(
            k=2, N=3, sets={c: {(1, 1)} for c in full_sets(2, 3)}
        )
        asg = GTAssignment({c: (1, 1) for c in inst.cells()})
        assert check_gt_solution(inst, asg)

    def test_row_condition_violation(self):
        sets = {
            (1, 1): {(2, 2)},
            (2, 1): {(1, 1)},
            (1, 2): {(1, 1)},
            (2, 2): {(1, 1)},
        }
        inst = GridTilingInstance(k=2, N=3, sets=sets)
        asg = GTAssignment(
            {(1, 1): (2, 2), (2, 1): (1, 1), (1, 2): (1, 1), (2, 2): (1, 1)}
        )
        # second coordinates 2 then 1 along row y=1
        assert not check_gt_solution(inst, asg)

    def test_membership_is_required(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(1, 1)}})
        assert not check_gt_solution(inst, GTAssignment({(1, 1): (2, 2)}))

    def test_non_int_choice_is_not_a_member(self):
        # (1.7, 1) was truncated to (1, 1); (1.0, 1) equals (1, 1) but is no pair of ints
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(1, 1)}})
        assert not check_gt_solution(inst, GTAssignment({(1, 1): (1.7, 1)}))
        assert not check_gt_solution(inst, GTAssignment({(1, 1): (1.0, 1)}))
        assert GTAssignment({(1, 1): (1.7, 1)}).choice == {(1, 1): (1.7, 1)}

    def test_partial_assignment_raises(self):
        inst = GridTilingInstance(k=2, N=2, sets=full_sets(2, 2))
        with pytest.raises(ValueError):
            check_gt_solution(inst, GTAssignment({(1, 1): (1, 1)}))


class TestBruteForce:
    def test_empty_set_is_infeasible(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): set()})
        assert solve_gt_brute_force(inst) is None

    def test_full_sets_are_solvable(self):
        inst = GridTilingInstance(k=2, N=2, sets=full_sets(2, 2))
        asg = solve_gt_brute_force(inst)
        assert asg is not None
        assert check_gt_solution(inst, asg)

    def test_forced_row_conflict_is_infeasible(self):
        # the single combined choice needs 3 <= 1 along row y=1
        inst = GridTilingInstance(
            k=2,
            N=3,
            sets={(1, 1): {(1, 3)}, (2, 1): {(2, 1)}, (1, 2): {(2, 2)}, (2, 2): {(3, 2)}},
        )
        assert solve_gt_brute_force(inst) is None
        assert gt_solutions_exhaustive(inst) == []

    def test_invalid_instance_raises(self):
        inst = GridTilingInstance(k=1, N=1, sets={(1, 1): {(1, 1)}})
        with pytest.raises(ValueError):
            solve_gt_brute_force(inst)

    def test_deep_grid_needs_no_recursion(self):
        # 1024 cells, one search level each: past the default recursion limit
        inst = generate_planted(32, 2)
        asg = solve_gt_brute_force(inst)
        assert asg is not None and check_gt_solution(inst, asg)

    def test_budget_exceeded(self):
        inst = GridTilingInstance(k=2, N=3, sets=full_sets(2, 3))
        with pytest.raises(BudgetExceededError):
            solve_gt_brute_force(inst, budget=2)

    # SHA-256 of each instance's answer and expansion count (the smallest
    # budget at which the oracle finishes, or "budget" past 10^4) on planted
    # and random instances: pins the search itself, so the oracle may get
    # cheaper but must try the same candidates in the same order.
    ANSWER_DIGEST = "db9db76110e5893c2cd8806b4e7f28e49013a32df0e972cb20fe50b864251f16"

    @staticmethod
    def _answer_and_expansions(inst) -> str:
        cap = 10_000

        def run(budget):
            try:
                return True, solve_gt_brute_force(inst, budget=budget)
            except BudgetExceededError:
                return False, None

        finished, asg = run(cap)
        if not finished:
            return "budget"
        lo, hi = 0, cap  # the count lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if run(mid)[0]:
                hi = mid
            else:
                lo = mid + 1
        answer = None if asg is None else sorted(asg.choice.items())
        return f"{answer}:{lo}"

    def test_answers_and_expansion_counts_match_pinned_digest(self):
        digest = hashlib.sha256()
        for k, n, seed in product(range(1, 5), range(2, 6), range(6)):
            for inst in (
                generate_planted(k, n, noise=2, seed=seed),
                generate_random(k, n, 0.1, seed),
                generate_random(k, n, 0.3, seed),
            ):
                digest.update(f"{self._answer_and_expansions(inst)};".encode())
        assert digest.hexdigest() == self.ANSWER_DIGEST

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 2),
        n=st.integers(2, 3),
        density=st.sampled_from((0.0, 0.2, 0.4, 0.7, 1.0)),
        seed=st.integers(0, 10_000),
    )
    def test_agrees_with_exhaustive_enumeration(self, k, n, density, seed):
        inst = generate_random(k, n, density, seed)
        asg = solve_gt_brute_force(inst)
        all_solutions = gt_solutions_exhaustive(inst)
        if asg is None:
            assert all_solutions == []
        else:
            assert check_gt_solution(inst, asg)
            assert asg in all_solutions


class TestBoundsRule:
    """ROADMAP item 28's bounds rule, ``_oracles.bounds_refutes``: it must refute no feasible instance."""

    def test_refutes_every_sampled_k2_n2_no_instance_with_no_empty_cell(self):
        # every 17th of the 65,536 (2, 2) instances (a stride of 16 would keep cell 1 empty);
        # CI's (2, 2) step counts all of them
        sample = range(0, exhaustive_k2n2.COUNT, 17)
        empty, refuted, survivors, unsound = exhaustive_k2n2.bounds_counts(sample)
        assert (len(sample), empty, refuted, survivors, unsound) == (3856, 873, 493, 0, 0)


class TestGenerators:
    def test_planted_noise_zero_is_yes_instance(self):
        inst = generate_planted(2, 3, noise=0, seed=7)
        assert solve_gt_brute_force(inst) is not None

    def test_planted_noise_bounds_set_sizes(self):
        inst = generate_planted(3, 5, noise=3, seed=1)
        assert all(len(s) <= 4 for s in inst.sets.values())
        assert solve_gt_brute_force(inst) is not None

    def test_planted_single_cell(self):
        inst = generate_planted(1, 2, noise=0, seed=0)
        assert inst.sets[(1, 1)] == frozenset({(1, 1)})

    def test_random_density_one_is_full(self):
        inst = generate_random(2, 2, 1.0, seed=3)
        assert all(len(s) == 4 for s in inst.sets.values())
        assert solve_gt_brute_force(inst) is not None

    def test_random_density_zero_is_empty(self):
        inst = generate_random(2, 2, 0.0, seed=3)
        assert all(len(s) == 0 for s in inst.sets.values())
        assert solve_gt_brute_force(inst) is None

    def test_invalid_parameters(self):
        # sizes follow validate_instance's rule and wording: True and 2.0 are not sizes;
        # noise, density and seed follow the same exact-type rule
        for generate, args, message in [
            (generate_planted, (0, 2), "k must be a positive integer, got 0"),
            (generate_planted, (1, 1), "N must be an integer >= 2, got 1"),
            (generate_planted, (True, 2), "k must be a positive integer, got True"),
            (generate_random, (True, 2, 0.5), "k must be a positive integer, got True"),
            (generate_planted, (2.0, 3), "k must be a positive integer, got 2.0"),
            (generate_random, (3, 2.0, 0.5), "N must be an integer >= 2, got 2.0"),
            (generate_random, (1, 2, 1.5), "density must be a number in [0, 1], got 1.5"),
            (generate_random, (2, 3, "0.5"), "density must be a number in [0, 1], got '0.5'"),
            (generate_random, (2, 3, True), "density must be a number in [0, 1], got True"),
            (generate_planted, (2, 3, -1), "noise must be an integer >= 0, got -1"),
            (generate_planted, (2, 3, 1.5), "noise must be an integer >= 0, got 1.5"),
            (generate_planted, (2, 3, True), "noise must be an integer >= 0, got True"),
            (generate_planted, (2, 3, 0, 1.5), "seed must be an integer, got 1.5"),
            (generate_random, (2, 3, 0.5, "x"), "seed must be an integer, got 'x'"),
            (generate_random, (2, 3, 0.5, True), "seed must be an integer, got True"),
            (
                generate_planted,
                (0, 3, -1, None),
                "k must be a positive integer, got 0; noise must be an integer >= 0, got -1; "
                "seed must be an integer, got None",
            ),
        ]:
            with pytest.raises(ValueError) as exc:
                generate(*args)
            assert str(exc.value) == message

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(2, 4),
        noise=st.integers(0, 4),
        seed=st.integers(0, 10_000),
    )
    def test_generators_are_deterministic(self, k, n, noise, seed):
        assert generate_planted(k, n, noise, seed) == generate_planted(k, n, noise, seed)
        assert generate_random(k, n, 0.5, seed) == generate_random(k, n, 0.5, seed)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 3), n=st.integers(2, 4), seed=st.integers(0, 10_000))
    def test_planted_always_contains_planted_solution(self, k, n, seed):
        inst = generate_planted(k, n, noise=2, seed=seed)
        planted = GTAssignment(
            {(x, y): (min(y, n), min(x, n)) for x, y in inst.cells()}
        )
        assert check_gt_solution(inst, planted)


class TestJsonRoundTrip:
    def test_round_trip_is_lossless(self):
        inst = generate_random(2, 3, 0.4, seed=42)
        again = GridTilingInstance.from_json_dict(inst.to_json_dict())
        assert again == inst

    def test_format_shape(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(2, 1)}})
        data = inst.to_json_dict()
        assert data == {"k": 1, "N": 2, "sets": {"1,1": [[2, 1]]}}

    def test_malformed_document_raises(self):
        with pytest.raises(ValueError):
            GridTilingInstance.from_json_dict({"k": 1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", 1.9), ("k", True), ("k", "2"), ("N", 2.0), ("pair", [1.5, 2]), ("pair", [1, "2"]),
            ("pair", [1, 1, 1]), ("pair", [1]),
            ("key", " +1,1 "), ("key", "+1,1"), ("key", "01,1"), ("key", "0,1"),
            ("key", "1.0,1"), ("key", "1,2,3"), ("key", "1"),
        ],
        ids=[
            "float-k", "boolean-k", "string-k", "float-N", "float-coordinate", "string-coordinate",
            "triple-pair", "single-pair",
            "spaced-signed-key", "signed-key", "leading-zero-key", "zero-key",
            "decimal-point-key", "three-coordinate-key", "one-coordinate-key",
        ],
    )
    def test_non_integer_fields_rejected(self, field, value):
        # cell keys are only the canonical "<x>,<y>": no two keys name one cell
        data = {"k": 1, "N": 2, "sets": {"1,1": [[1, 2]]}}
        if field == "pair":
            data["sets"]["1,1"] = [value]
        elif field == "key":
            data["sets"] = {value: [[1, 2]]}
        else:
            data[field] = value
        with pytest.raises(ValueError, match="malformed grid tiling instance"):
            GridTilingInstance.from_json_dict(data)
