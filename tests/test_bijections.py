import pytest

from colorpart import bijections
from colorpart.avoidance import (
    Sense,
    avoids_all,
    begins_with_ascent,
    contains_vincular,
)
from colorpart.bijections import (
    CLASS2_CODOMAIN,
    CLASS2_DOMAIN,
    CLASS3A_CODOMAIN,
    CLASS3A_DOMAIN,
    CLASS3B_CODOMAIN,
    CLASS3B_DOMAIN,
    F_DOMAIN,
    G_DOMAIN,
    PAT_1_23,
    PAT_12_3,
    PAT_214_3,
    DomainError,
    bij_class2_pairs,
    bij_class2_pairs_inv,
    bij_class3_colorswap,
    bij_class3_colorswap_inv,
    bij_class3_structural,
    bij_class3_structural_inv,
    bij_f,
    bij_f_inv,
    bij_g,
    block_descent_tau,
    verify_bijection,
)
from colorpart.cli import main
from colorpart.core import ColoredPartition, Permutation, parse_blocks, parse_permutation
from colorpart.enumeration import iter_avoiders
from colorpart.formulas import bell, pair4_sequence


class TestF:
    def test_worked_example(self):
        sigma = parse_blocks("1^24^1/2^1/3^26^1/5^1/7^2")
        q = bij_f(sigma)
        assert q.entries == (7, 3, 8, 6, 1, 5, 4, 2)
        assert bij_f_inv(q) == sigma

    def test_base_cases(self):
        assert bij_f(ColoredPartition((1,), (1,))).entries == (2, 1)
        assert bij_f(ColoredPartition((1,), (2,))).entries == (1, 2)

    def test_round_trip_exhaustive(self):
        for n in range(1, 7):
            images = set()
            for sigma in iter_avoiders(n, 2, F_DOMAIN):
                q = bij_f(sigma)
                assert q.n == n + 1
                assert not contains_vincular(q, PAT_12_3)
                assert not contains_vincular(q, PAT_214_3)
                assert bij_f_inv(q) == sigma
                images.add(q)
            # bijective onto S_{n+1} avoiding both dashed patterns
            assert len(images) == pair4_sequence(n)[n - 1]

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            bij_f(parse_blocks("1^12^1"))  # word 1^11^1 contains 1^11^1


class TestDomainErrors:
    def test_names_the_first_contained_pattern(self):
        def message(check, *args):
            with pytest.raises(DomainError) as exc:
                check(*args)
            return str(exc.value)

        # 1^11^22^22^1 contains 1^11^2 and 1^22^1 of the class-3a domain,
        # not 1^11^1; the message names the first of them in set order
        sigma = ColoredPartition((1, 1, 2, 2), (1, 2, 2, 1))
        assert message(bij_class3_structural, sigma) == \
            "1^11^22^22^1 contains 1^11^2, outside the class-3 structural domain"
        assert message(bijections._require_avoids, sigma, CLASS3A_DOMAIN[::-1], "x") == \
            "1^11^22^22^1 contains 1^22^1, outside the x domain"
        # a host that contains only the set's last pattern
        assert message(bij_class3_structural, ColoredPartition((1, 2), (2, 1))) == \
            "1^22^1 contains 1^22^1, outside the class-3 structural domain"


class TestTwoColorDomains:
    @pytest.mark.parametrize("fn", [
        bij_f, bij_g, bij_class2_pairs, bij_class2_pairs_inv,
        bij_class3_structural, bij_class3_structural_inv,
        bij_class3_colorswap, bij_class3_colorswap_inv])
    @pytest.mark.parametrize("text", ["1^3", "1^32^1", "1^1/2^3"])
    def test_color_above_two_rejected(self, fn, text):
        with pytest.raises(DomainError):
            fn(parse_blocks(text))

    def test_tau_ignores_colors(self):
        assert block_descent_tau(parse_blocks("1^3/2^1")).entries == (2, 1)


class TestTau:
    def test_examples(self):
        # blocks listed by decreasing minima, min first then decreasing
        sigma = parse_blocks("1^15^17^1/2^13^18^1/4^1/6^1")
        assert block_descent_tau(sigma).entries == (6, 4, 2, 8, 3, 1, 7, 5)

    def test_image_avoids_1_23(self):
        for n in range(1, 7):
            images = set()
            for sigma in iter_avoiders(n, 1, ()):
                q = block_descent_tau(sigma)
                assert not contains_vincular(q, PAT_1_23)
                images.add(q)
            assert len(images) == bell(n)


class TestG:
    def test_small_example(self):
        q = bij_g(parse_blocks("1^2"))
        assert q.entries == (2, 3, 1)

    def test_image_properties(self):
        for n in range(1, 6):
            images = set()
            for sigma in iter_avoiders(n, 2, G_DOMAIN):
                q = bij_g(sigma)
                assert q.n == n + 2
                assert begins_with_ascent(q)
                assert not contains_vincular(q, PAT_12_3)
                assert q[1] == n + 2
                images.add(q)
            assert len(images) == (n + 1) * bell(n)


class TestClass2:
    def test_counts_and_round_trip(self):
        for n in range(1, 7):
            domain = list(iter_avoiders(n, 2, CLASS2_DOMAIN))
            assert len(domain) == 2 ** n + n - 1
            images = set()
            for sigma in domain:
                tau = bij_class2_pairs(sigma)
                assert avoids_all(tau, CLASS2_CODOMAIN, Sense.PATTERN)
                assert bij_class2_pairs_inv(tau) == sigma
                images.add(tau)
            assert len(images) == len(domain)


@pytest.mark.parametrize("fwd,inv,domain,codomain", [
    (bij_class3_structural, bij_class3_structural_inv,
     CLASS3A_DOMAIN, CLASS3A_CODOMAIN),
    (bij_class3_colorswap, bij_class3_colorswap_inv,
     CLASS3B_DOMAIN, CLASS3B_CODOMAIN),
])
class TestClass3:
    def test_counts_and_round_trip(self, fwd, inv, domain, codomain):
        for n in range(1, 8):
            members = list(iter_avoiders(n, 2, domain))
            assert len(members) == 2 * n
            images = set()
            for sigma in members:
                tau = fwd(sigma)
                assert avoids_all(tau, codomain, Sense.PATTERN)
                assert inv(tau) == sigma
                images.add(tau)
            assert len(images) == 2 * n


class TestVerifyReports:
    @pytest.mark.parametrize("name", ["f", "tau", "g", "class2",
                                      "class3a", "class3b"])
    def test_all_pass_small(self, name):
        report = verify_bijection(name, 5)
        assert report.ok, report

    def test_surjectivity_checked_past_eight(self):
        # the g codomain lives in S_9, past what filtering all m! could reach
        report = verify_bijection("g", 7)
        assert report.ok, report
        assert report.codomain_size == report.domain_size == 7016

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            verify_bijection("nope", 3)

    def test_domains_not_rechecked(self, monkeypatch):
        # the domain is enumerated as avoiders and an image reaches the
        # inverse only once found in the enumerated codomain, so verify
        # runs the maps without their checks; the public maps keep them
        def refuse(*args):
            raise AssertionError("domain re-checked")

        monkeypatch.setattr(bijections, "_require_avoids", refuse)
        monkeypatch.setattr(bijections, "_require_perm_avoids", refuse)
        for name in ("f", "tau", "g", "class2", "class3a", "class3b"):
            assert verify_bijection(name, 4).ok, name
        with pytest.raises(AssertionError, match="domain re-checked"):
            bij_f(parse_blocks("1^1"))
        with pytest.raises(AssertionError, match="domain re-checked"):
            bij_f_inv(parse_permutation("21"))

    @pytest.mark.parametrize("name", ["f", "tau", "g", "class2",
                                      "class3a", "class3b"])
    def test_negative_size_is_refused(self, name):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            verify_bijection(name, -1)


class TestVerifyFailures:
    """A planted fault in a map, an inverse or a codomain makes verify fail."""

    def fails(self, capsys, name, n):
        report = verify_bijection(name, n)
        assert not report.ok
        assert main(["verify", "--bijection", name, "-n", str(n)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL bijection %s at n=%d (domain %d)\n"
                              % (name, n, report.domain_size))
        return report, out

    def test_image_outside_codomain(self, capsys, monkeypatch):
        monkeypatch.setattr(bijections, "bij_class3_colorswap", lambda sigma: sigma)
        report, out = self.fails(capsys, "class3b", 3)
        assert "  1^22^13^1 -> 1^22^13^1 not in codomain\n" in out
        assert report.image_size < report.domain_size

    def test_colliding_images(self, capsys, monkeypatch):
        # every set partition goes to n...1, which avoids 1-23
        monkeypatch.setattr(bijections, "block_descent_tau",
                            lambda word: Permutation(tuple(range(len(word), 0, -1))))
        report, out = self.fails(capsys, "tau", 4)
        assert report.image_size == 1
        assert len(report.membership_failures) == report.domain_size - 1 == 14
        assert all(f.endswith(" collide at 4321") for f in report.membership_failures)
        assert "  1^12^13^14^1 and 1^12^13^1/4^1 collide at 4321\n" in out

    def test_broken_inverse(self, capsys, monkeypatch):
        monkeypatch.setattr(bijections, "bij_class2_pairs_inv", lambda sigma: sigma)
        report, out = self.fails(capsys, "class2", 3)
        assert report.image_size == report.domain_size == report.codomain_size
        assert not report.membership_failures
        assert report.round_trip_failures[0] in out

    def test_g_codomain_pruned_one_entry_too_far(self, capsys, monkeypatch):
        walk = bijections._vincular_walk

        def late(m, patterns, ascent_led=False):
            # the ascent test moved from entries 1, 2 to entries 2, 3
            return (q for q in walk(m, patterns) if not ascent_led or q[1] < q[2])

        monkeypatch.setattr(bijections, "_vincular_walk", late)
        report, out = self.fails(capsys, "g", 3)
        assert report.codomain_size != report.domain_size
        assert " not in codomain\n" in out
