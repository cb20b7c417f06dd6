"""Golden report digests: refactors of the suites must leave every report byte-identical.

The n = 3 digests were recorded before the checks were declared as data
(parameter spec, build, residual), from the closure-based suites, and cover
every suite at seeds 0 and 1, draws 2, with and without ``--mutate one-entry``.
The n = 2 and n = 4 digests (seed 0, draws 2, same two modes) were recorded
before the domain modules' structural checks were made to return residuals;
those checks depend on n, and n = 3 alone does not pin them.
The n = 6 digests of cg, classical and rime (seed 0, draws 1, same two modes)
were recorded before the sparse operators kept one common denominator; they
pin the longest operator product chains in the tier-1 run.
The n = 8 digests of every suite (seed 0, draws 1, same two modes) were
recorded before quadratic brackets became two-leg operators; they hold the
reports byte-identical at the largest n in the tier-1 run, in about 3 s.
``wall_time_ms`` is the only field left out.  Re-record them only with a
change that is meant to move the reports, and say so where it is recorded.

``--mutate`` perturbs only the one check per suite that the seed picks, so
``MUTATED_WITNESSES`` pins every mutable check's mutated witness at once: one
digest over (suite, n, name, index, value) for every suite at n = 2, 3 and 4,
seed 0, draws 1.  It was recorded before residuals could be deferred
(decided first and formed on demand), and every one of its checks fails.
"""

import hashlib
import json

import pytest

from yibre.kernel import RationalDraw
from yibre.suites import SUITE_BUILDERS, _first_failure, _mutate, run_suite

DIGESTS = {
    ("bezout", 0, None): "8da83cf361424e4f0e68040330f09367b09e7feff5d68e3a95dc51e2ba50cda0",
    ("bezout", 0, 'one-entry'): "d8a87758d587cde2fdd19b85a6cdbe945263f5f08113896a1d83c05fb574e1dd",
    ("bezout", 1, None): "f92efb445a7e3995a554bd92ee1cba16b1de0c7bbe8152b3dea062b15ea9a656",
    ("bezout", 1, 'one-entry'): "c9698a14ed9669813922e3a57b07d51a44305ec8921e486d99d25ab30ce94b05",
    ("blocks", 0, None): "43339b76c59e2cd840ea00f84c02c2134dd30043e61ff0e6ba9d3626e0d50519",
    ("blocks", 0, 'one-entry'): "b30e267c6826e15ee74039144b466a24f12a497a044af2452f2105b730d21388",
    ("blocks", 1, None): "d18cf117d304b09bb71aff9fbb2f7bba2eec189bdcabd5e8ef0f7b134f206ace",
    ("blocks", 1, 'one-entry'): "9ebfa5097bbb4cbe536fc9c4a440f6872c1c5fef5a6dfe20e22a391452db791c",
    ("cg", 0, None): "40e5f6e1172d32a520a3a5f113c26cefa36dc3d9df28133de8504e39df70eb96",
    ("cg", 0, 'one-entry'): "a315ff7055b146a9959c70ab625f512700f71611a64ea703a597483d98e7591f",
    ("cg", 1, None): "bac55208cb01e8c50e9b350a1f1c92704c3e2be7e98dc63d179f2090c57a238a",
    ("cg", 1, 'one-entry'): "36f5e31752b1e495c9d089011dd5fa4e41f85bed652b9d4b05099c320e43ddf2",
    ("classical", 0, None): "f32bb9aed5cd51610090522e849ef97f7521a8be9201248fbe2616976a233780",
    ("classical", 0, 'one-entry'): "6d09b2a3ea4ad0c641edb3332cdc04dee926dd79be962ea64778b5123050b5b1",
    ("classical", 1, None): "ad6fbcb17332a8787f7caddc4508e13b3cff7dfce146d2ab618c6f3f3787e7b3",
    ("classical", 1, 'one-entry'): "bd125fc47646446214f1904f59bf451ef44ec9bc8622ec86c33f4225ada296cf",
    ("poisson", 0, None): "9a92fede7deea66b8865ec06acd150cc202e8e8666a13c3e3571d89cba69dd91",
    ("poisson", 0, 'one-entry'): "e626c38c68c176a41e3e31117f39a06d0a541c378d1f24c3e2bc6bd7de6dc5f3",
    ("poisson", 1, None): "4e329a55209a1ad38041a1f48d93793ffd14a7b14e68f94a5bb90f49faa6be55",
    ("poisson", 1, 'one-entry'): "90c9ea4adba0f1895396ec8124052340f3e4a19c23b74f0c97fe172fd07a1852",
    ("qalg", 0, None): "eca4ab01d35fad593fa2012b5bc8955332eba271ffac2360b110f182764cc4be",
    ("qalg", 0, 'one-entry'): "eca4ab01d35fad593fa2012b5bc8955332eba271ffac2360b110f182764cc4be",
    ("qalg", 1, None): "edbbd6b8613bcfa1260738c7917b9f0b652982a7089486d2e2db953dbda3ca95",
    ("qalg", 1, 'one-entry'): "edbbd6b8613bcfa1260738c7917b9f0b652982a7089486d2e2db953dbda3ca95",
    ("rime", 0, None): "7bb3f5167ac617453c76ba1f1d1655385095b97aa0ae260efafee93a6b88ede5",
    ("rime", 0, 'one-entry'): "22925bb91f73487af6cffaf85e7c4669bc85223b34722809967755d09df1b1f2",
    ("rime", 1, None): "e11fe181e989fea72729c7ca33e7a0658e4190ab5ff3493e5980acd17798ddbf",
    ("rime", 1, 'one-entry'): "9c531cac45e44e2802bbfe74a5bbfded1ed6a75d20a82827e7d83453cba888a0",
    ("rota", 0, None): "ed4f954e6f738b5bca6c4ab2b4164498ec9d50223ad7280d268624f3c7054f40",
    ("rota", 0, 'one-entry'): "27be6768ab8624d326dd24a8211a8a70e6b8c126ba59210263903e85792f9c8e",
    ("rota", 1, None): "a4db545951037e52667bb3d34581fda256c4685350b6952a8dde76abc2362303",
    ("rota", 1, 'one-entry'): "02ff8dfee339e2c4083286c3b284cc3e78afd9a21909ac7428c203a52877c62c",
}

# (suite, n, mutate) at seed 0, draws 2
DIGESTS_BY_N = {
    ("bezout", 2, None): "480988a9d4b17cd8701aa54d37570e946aa32bd047ae5b944f4121fcc9589746",
    ("bezout", 2, 'one-entry'): "6fd8b3b669c4688d16cfb688c2db92db3078656dbe3881cd34cd978a5e5d9936",
    ("bezout", 4, None): "fb52f3487b1a13f898f66f269e6075625bc1cc5a5316c106984d3fc1d561c2b6",
    ("bezout", 4, 'one-entry'): "975bea6913d4c1def8efc5eec31fb56eec12d75d506abc470538e38674ac1af1",
    ("blocks", 2, None): "50fe7e1eaeadeff3d074ba954fb9100c8bae991a7903abd4d43ed84cd57047e6",
    ("blocks", 2, 'one-entry'): "30e3eb6200d7727eb035232a1c5b25c62afb82ec8fa02389789ad26ef601f6f2",
    ("blocks", 4, None): "4fc652f206a1e1b901a2f7cdeb2e059455440e285b5c42b45b7d5ecff845f9bb",
    ("blocks", 4, 'one-entry'): "e69d4a474ef83442558418da07137085d49fb9b0a7144dccd94ce0a17f2bb01b",
    ("cg", 2, None): "3fd9d19a1aaa1478890901a9ec8d34ebec8190b0c77dfd5ac0c52c6fbe743c22",
    ("cg", 2, 'one-entry'): "c5902010c3095578b9e04859fd71f174a71755d98bbe7a1cd69dc5d5109482b1",
    ("cg", 4, None): "ae3a890ca0e188e4a6afc2e8d4e5b67d310701f14dead64e4f86a3d8f086b3b0",
    ("cg", 4, 'one-entry'): "529c4376bec6f19c51a5cc7042c355f4b5fe4a1548576b72006a9d08f4d9ef9c",
    ("classical", 2, None): "680b7f6cef2d2964682a7e775d55367593d7ea0d7e7b1f1667b436b77446eefc",
    ("classical", 2, 'one-entry'): "0a58ef34765a9c21687953a85e1070c9ebecad07ed5a7a5beb4a883425f3692c",
    ("classical", 4, None): "d2d095fc0a9ffbd617d3fa47ac3883d02959d3b973dc8b48b50e31b755e5a033",
    ("classical", 4, 'one-entry'): "b64771e906c51eb1c94d607ef97b05166f2f32fe234aef334e7256234c01f9cd",
    ("poisson", 2, None): "af1bac3125e22127ae02612f7c49acb550b90355bb4653e2f24239ab939265b0",
    ("poisson", 2, 'one-entry'): "388a62426eaed9d64289906da5684ad8c09e386b3b450cb142d90419078850bd",
    ("poisson", 4, None): "f4604c85e69fd310144b430d13464288975c1f0a05d0e463d28c4a1e8daff516",
    ("poisson", 4, 'one-entry'): "6ce7bf114d2468714f28b4a9387fd1f3c0c8258cbf635747f3d7857ce9236455",
    ("qalg", 2, None): "2a996919ec8534b29f8a66d49c28df7ed83aec5ae67df647e10a8121e3e0788b",
    ("qalg", 2, 'one-entry'): "2a996919ec8534b29f8a66d49c28df7ed83aec5ae67df647e10a8121e3e0788b",
    ("qalg", 4, None): "86270820308f8dbaf42affe82072689746982d2377b3a0128cc389598c03b86b",
    ("qalg", 4, 'one-entry'): "86270820308f8dbaf42affe82072689746982d2377b3a0128cc389598c03b86b",
    ("rime", 2, None): "1b26f26c93f0fd9c3abdff2898d0f766d7a61da7f3345e91bf090138440492f4",
    ("rime", 2, 'one-entry'): "d44cd8e7da97c93fd6000b9f483bac0ceb6ad3c732614e8f012ae0e8a4b7b879",
    ("rime", 4, None): "8dd72a5b49df91f3bb2f6715434d66473d483b5826248fc89a167bc79cdf7b5d",
    ("rime", 4, 'one-entry'): "a4c188c4228944b20e41887e34eeac5c6542be4a957764264253e13f376fb3fe",
    ("rota", 2, None): "2cd89d9d2dc6c79c066463275d44a3928440330306c749ff0b3dd0fb0031e6cb",
    ("rota", 2, 'one-entry'): "4774a5595799b00d67795d4a190fd62d193ea7124ec5fff0ea766e9c7e8399df",
    ("rota", 4, None): "25fde428e7671ec236b48d5a6b432b49b9c5bfd96f303406f02231b0ebd35106",
    ("rota", 4, 'one-entry'): "cc5e3ebe169c70deba931d196a829bfb01d5e569233124be57e8f1692bfe0029",
}

# (suite, mutate) at n = 6, seed 0, draws 1
DIGESTS_N6 = {
    ("cg", None): "00d4e697d5986151668175a47828d18205a4e42ab4d17e3f01f13b96f5c8e5c1",
    ("cg", 'one-entry'): "e4bd6fa3bd5643243394ae36a564a9b0e3d88f9213f68220826e09ca77d65177",
    ("classical", None): "f5fab1ad6e4e5640dcf8eca2f8293f46f63a18557afd833eda1c96699047166b",
    ("classical", 'one-entry'): "709dabbbe2efe824e4294413a1fec8f921abcde1a63fc5974be20df6504b67d9",
    ("rime", None): "ea1b5f80a938da5d7b5e41a5ebc99d085c29d11cddf503f5b626a25180c98206",
    ("rime", 'one-entry'): "5e7215e523dc8c79c743e547fac6a0256f2f62924498e17a6a894d9c950251e7",
}

# (suite, mutate) at n = 8, seed 0, draws 1
DIGESTS_N8 = {
    ('bezout', None): "a42110d0b095fb228f997b49e7149578cdfaedd6dfc32b3e8f3d6d4845f276e0",
    ('bezout', 'one-entry'): "8d7bc8030fcdbc039d3a9c803efa28b59e855bbe0e13ec1785af7f71bda0ee86",
    ('blocks', None): "9434d75d0a74dbb17c5078cb0d463789b5e6ab9c5b5f489afefcc37b222f664d",
    ('blocks', 'one-entry'): "f37dc689aa718b577be509698e5c58a5d782814926657f8b8737aeb3cf7eaffe",
    ('cg', None): "a1b3d1624261f1b465e1d781f01ebfa5ea5fce1bdc9ce8460b77b871c378c2f1",
    ('cg', 'one-entry'): "b4e7403e87ee4e72b4d78bbebd288f390032d849a8be6c08f91cc60c8371264a",
    ('classical', None): "76bac37d7cb5d454a0878b031d75f452235629f6019f25b87abc2e1a4c06806b",
    ('classical', 'one-entry'): "075791d266351d42f257cce8f44b67f24ce57f6f7d56219f71386bd4457107ec",
    ('poisson', None): "013d2118ca7daeefc1e3d3f3237a74385e8c7a7c1c7673732c61e8ac33f57ae8",
    ('poisson', 'one-entry'): "864cb0880aac0bb819bdf14e6b9845fed93d89ec3b35ccd9b43d9b7cd525b188",
    ('qalg', None): "4fcd164fd3dc97a87f4313b455d3f1b0d230a0d9045a9bbbdff34f63742b4d84",
    ('qalg', 'one-entry'): "4fcd164fd3dc97a87f4313b455d3f1b0d230a0d9045a9bbbdff34f63742b4d84",
    ('rime', None): "0e7035ab7f17f537bc6cf9ea046c836855a22cdf3033921e07afb960d2817396",
    ('rime', 'one-entry'): "b582d74d1c41737b439181b13aa1716ce56ea465f63651ff656a1c74c916f7d7",
    ('rota', None): "035d66f4f97097b4e1305ac3dc7598d052144ab6e46ebe2d2b4574647ba39db5",
    ('rota', 'one-entry'): "395b8d261b01db4f50ac4e044cb14bbfe06afe6b711a7e4b231d6a8e2947c2d2",
}

# (number of mutable checks, digest of their mutated witnesses) at n = 2, 3, 4, seed 0, draws 1
MUTATED_WITNESSES = (285, "52e9f0e9ab9114a4672bcab02db033fd620feca6730e0d416be6da41d54ba598")


def _digest(report) -> str:
    d = report.to_dict()
    d.pop("wall_time_ms")
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("suite,seed,mutate", sorted(DIGESTS, key=str))
def test_report_digest(suite, seed, mutate):
    assert _digest(run_suite(suite, 3, seed, 2, mutate)) == DIGESTS[suite, seed, mutate]


@pytest.mark.parametrize("suite,n,mutate", sorted(DIGESTS_BY_N, key=str))
def test_report_digest_at_n(suite, n, mutate):
    assert _digest(run_suite(suite, n, 0, 2, mutate)) == DIGESTS_BY_N[suite, n, mutate]


@pytest.mark.parametrize("suite,mutate", sorted(DIGESTS_N6, key=str))
def test_report_digest_at_n6(suite, mutate):
    assert _digest(run_suite(suite, 6, 0, 1, mutate)) == DIGESTS_N6[suite, mutate]


@pytest.mark.parametrize("suite,mutate", sorted(DIGESTS_N8, key=str))
def test_report_digest_at_n8(suite, mutate):
    assert _digest(run_suite(suite, 8, 0, 1, mutate)) == DIGESTS_N8[suite, mutate]


def test_every_mutable_check_fails_with_its_pinned_witness():
    rows = []
    for suite in sorted(SUITE_BUILDERS):
        for n in (2, 3, 4):
            for check in SUITE_BUILDERS[suite](n, RationalDraw(0), 1):
                if check.mutable:
                    ok, witness = _first_failure(_mutate(check.fn()))
                    assert not ok, (suite, n, check.name)
                    rows.append([suite, n, check.name, witness["index"], witness["value"]])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(rows), digest) == MUTATED_WITNESSES


def test_digests_cover_every_suite():
    assert {s for s, _, _ in DIGESTS} == set(SUITE_BUILDERS)
    assert {s for s, _, _ in DIGESTS_BY_N} == set(SUITE_BUILDERS)
    assert {s for s, _ in DIGESTS_N8} == set(SUITE_BUILDERS)


@pytest.mark.parametrize("suite", sorted(SUITE_BUILDERS))
def test_declared_names_are_unique_and_reported(suite):
    declared = [c.name for c in SUITE_BUILDERS[suite](3, RationalDraw(0), 2)]
    assert len(declared) == len(set(declared))
    assert sorted(declared) == [c.name for c in run_suite(suite, 3, 0, 2).checks]
