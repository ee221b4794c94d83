"""Golden table of CLI outputs: each row runs one command through
``cli.main`` in a fresh directory with a relative ``--out``, and pins the
exit code, the sha256 of stdout and of stderr, and the sha256 of every file
under ``--out`` by its relative name.

A row may first run the row it reads from (a trace ``synth`` wrote, or the
stdout of a ``mac`` stage piped in as stdin) and may write input files of
its own. ``Generator.normal`` draws depend on the numpy version, so rows
that draw noise are pinned for numpy 2.4.6 only.
"""

import hashlib
import io
import sys

import numpy as np
import pytest

from ledleak import cli

MAC_BUILD = ("mac", "build", "--dst", "aa:bb:cc:dd:ee:ff", "--src", "11:22:33:44:55:66")
#: A ``--config`` file: its key for ``--class`` is ``emanation_class``.
SYNTH_CONFIG = ("# Class II at 4800 baud\nemanation_class = II\ndata = HELLO\nbaud = 4800\n"
                "sigma = 0.05\nseed = 3\n")
#: The nibble string of an accepted frame, ``mac build --payload hi`` marshalled.
NIBBLES = ("555555555555555daabbccddeeff11223344556680008696"
           + "0" * 88 + "9a063d5f")

#: name: (argv; the row run first, or ``None``; whether that row's stdout is
#: piped in as stdin; files to write first; whether the row draws noise).
ROWS = {
    "synth I": (("synth", "--class", "I", "--seed", "1", "--out", "run1"),
                None, False, {}, False),
    "synth II": (("synth", "--class", "II", "--data", "SECRET", "--baud", "9600", "--seed", "1",
                  "--sigma", "0.02", "--offset", "0.01", "--out", "run2"), None, False, {}, True),
    "synth III": (("synth", "--class", "III", "--data", "SECRET", "--baud", "9600", "--seed", "1",
                   "--out", "run"), None, False, {}, False),
    "recover 9600": (("recover", "run/trace.optrace", "--baud", "9600"),
                     "synth III", False, {}, False),
    "recover auto": (("recover", "run/trace.optrace", "--baud", "auto"),
                     "synth III", False, {}, False),
    "synth III noisy": (("synth", "--class", "III", "--data", "SECRET", "--seed", "5",
                         "--sigma", "0.4", "--out", "noisy"), None, False, {}, True),
    "recover noisy 9600": (("recover", "noisy/trace.optrace", "--baud", "9600"),
                           "synth III noisy", False, {}, True),
    "recover noisy auto": (("recover", "noisy/trace.optrace", "--baud", "auto"),
                           "synth III noisy", False, {}, True),
    "classify noisy": (("classify", "noisy/trace.optrace", "--data", "SECRET"),
                       "synth III noisy", False, {}, True),
    "recover class I": (("recover", "run1/trace.optrace"), "synth I", False, {}, False),
    "classify III": (("classify", "run/trace.optrace", "--data", "SECRET", "--baud", "9600"),
                     "synth III", False, {}, False),
    "classify II": (("classify", "run2/trace.optrace", "--data", "SECRET", "--baud", "9600"),
                    "synth II", False, {}, True),
    "sweep README": (("sweep-stretch", "--data", "A" * 64,
                      "--stretch-us", "0,104.1667,208.3334,1041.667,50000",
                      "--sample-rate", "153600", "--out", "sweep"), None, False, {}, False),
    "sweep README noisy": (("sweep-stretch", "--data", "A" * 64,
                            "--stretch-us", "0,104.1667,1041.667", "--sample-rate", "153600",
                            "--sigma", "0.05", "--seed", "9", "--out", "sweep"),
                           None, False, {}, True),
    "sweep flat row": (("sweep-stretch", "--data", "A", "--stretch-us", "100,0",
                        "--sample-rate", "1000", "--sigma", "0.02", "--seed", "3",
                        "--out", "sweep"), None, False, {}, True),
    "sweep over cap": (("sweep-stretch", "--stretch-us", "0,2e6", "--sample-rate", "1e8",
                        "--sigma", "0.01", "--out", "sweep"), None, False, {}, False),
    "diode 40 frames": (("diode", "--frames", "40", "--seed", "101", "--sigma", "0.01",
                         "--out", "link"), None, False, {}, True),
    "diode wired back": (("diode", "--frames", "5", "--seed", "4", "--wired-back",
                          "--out", "link"), None, False, {}, False),
    "diode attenuated": (("diode", "--frames", "20", "--seed", "404", "--sigma", "0.05",
                          "--attenuation", "0.3", "--out", "link"), None, False, {}, True),
    "diode huge baud": (("diode", "--baud", "1e308", "--frames", "0", "--out", "link"),
                        None, False, {}, False),
    "mac build": (MAC_BUILD + ("--payload", "hello"), None, False, {}, False),
    "mac validate": (("mac", "validate"), "mac build", True, {}, False),
    "mac peek": (("mac", "peek"), "mac build", True, {}, False),
    "mac abort": (("mac", "abort", "--abort-at", "60"), "mac build", True, {}, False),
    "mac validate aborted": (("mac", "validate"), "mac abort", True, {}, False),
    "mac build 1501 octets": (MAC_BUILD + ("--payload-hex", "00" * 1501),
                              None, False, {}, False),
    "reader bad header": (("recover", "bad.optrace"), None, False,
                          {"bad.optrace": "# optrace v1 sample_rate_hz=x origin_s=0.0\n0.0\n"},
                          False),
    "reader nan sample": (("recover", "nan.optrace"), None, False,
                          {"nan.optrace": "# optrace v1 sample_rate_hz=10000.0 origin_s=0.0\n"
                                          "0.0\nnan\n1.0\n"}, False),
    "synth config": (("synth", "--config", "c.cfg", "--out", "cfg"), None, False,
                     {"c.cfg": SYNTH_CONFIG}, True),
    "synth config class flag": (("synth", "--config", "c.cfg", "--class", "III", "--out", "cfg"),
                                None, False, {"c.cfg": SYNTH_CONFIG}, True),
    "diode config": (("diode", "--config", "d.cfg", "--out", "link"), None, False,
                     {"d.cfg": "frames=3\nattenuation=0.5\nseed=7\n"}, False),
    "config unknown key": (("synth", "--config", "u.cfg", "--out", "u"), None, False,
                           {"u.cfg": "class=III\n"}, False),
    "mac validate nibbles": (("mac", "validate", NIBBLES), None, False, {}, False),
    "recover noisy hysteresis": (("recover", "noisy/trace.optrace", "--baud", "auto",
                                  "--hysteresis", "0.3"), "synth III noisy", False, {}, True),
}

#: sha256 of empty output.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

#: name: (exit code, sha256 of stdout, sha256 of stderr, {file: sha256}).
GOLDEN = {
    "synth I": (
        0,
        "b6780aedd53900a5c42d2ee39905849e61634d35cea53fcfecbe8434be429eae",
        EMPTY,
        {
            "run1/events.optevents":
                "047343fee17269927f256b8b1d5ed3cc5557a1176a43691dd5cd2ff54a97b8a7",
            "run1/trace.optrace":
                "395022f100e7d6ba64aca010c6d631eacc6c1695921da03fbd64ac9600c9f989",
        }),
    "synth II": (
        0,
        "684920f37c78ce356fc7c6143bbaf11bd09582b1c49e7a3ccdf45d2d7114bb33",
        EMPTY,
        {
            "run2/events.optevents":
                "88885ca5b3b81aee76806544bb999a899b70dca34edc304f2e48dd1a9c844751",
            "run2/trace.optrace":
                "329b4005b17fd4bd4c97e9a9b452f94495d088382a2315bd8c4355a74ac6c1c4",
        }),
    "synth III": (
        0,
        "0c4ff57974147c8f5d51f5bad4ea011a46608332b9398c03227bba56a73ab5ae",
        EMPTY,
        {
            "run/events.optevents":
                "001a89743ec34e4425099890284957468ed337a0e7c94e4db922af6b614a6f86",
            "run/trace.optrace":
                "466ce507f12da22a7d6d0e928b52de79e387fdbfeca67e7995ceaccc707bd448",
        }),
    "recover 9600": (
        0,
        "f795b261bae272999a7af672e4262cd6308346a388f3429b529391c71cef0b0e",
        EMPTY,
        {}),
    "recover auto": (
        0,
        "f795b261bae272999a7af672e4262cd6308346a388f3429b529391c71cef0b0e",
        EMPTY,
        {}),
    "synth III noisy": (
        0,
        "7a483df01dfc78d8294faa8dd0b89d21fd994a4fe5683273f34baf1e7c72d897",
        EMPTY,
        {
            "noisy/events.optevents":
                "001a89743ec34e4425099890284957468ed337a0e7c94e4db922af6b614a6f86",
            "noisy/trace.optrace":
                "cd37aabe71b55abc706f1afca10ef6fc8f18902a868d117222a186f3d79033b1",
        }),
    "recover noisy 9600": (
        0,
        "f795b261bae272999a7af672e4262cd6308346a388f3429b529391c71cef0b0e",
        EMPTY,
        {}),
    "recover noisy auto": (
        0,
        "f27c5acaa935abb8d30e384d0fd0d3e470a829c336f033c788c245ea899ce27f",
        EMPTY,
        {}),
    "classify noisy": (
        0,
        "2d232e9a78b8700bb48497a30fdc52c2e17615a6c0332af30c49cebc9e524d22",
        EMPTY,
        {}),
    "recover class I": (
        2,
        EMPTY,
        "9dece6286f61c5889eeb9be9b5f57e2584f6520795ce625a5c7799c890706798",
        {}),
    "classify III": (
        0,
        "c346189f7098c397414ad1d3714e1a25b4cd2aa353f5a692160f223a94044e02",
        EMPTY,
        {}),
    "classify II": (
        0,
        "5a15aa15797220b81dc3a7672241ea53d59cc7188769facc58d81b58d68b9117",
        EMPTY,
        {}),
    "sweep README": (
        0,
        "b934f2339c4e9571acb1c6edd61d2bc6c6c93a452e194fbbef3d0ae74fa4ed90",
        EMPTY,
        {
            "sweep/sweep_stretch.csv":
                "f11e868b8e6f100c37a33ee59acbc70ad5e8192950ecd669dc53e85f4f8049d6",
        }),
    "sweep README noisy": (
        0,
        "b934f2339c4e9571acb1c6edd61d2bc6c6c93a452e194fbbef3d0ae74fa4ed90",
        EMPTY,
        {
            "sweep/sweep_stretch.csv":
                "99df7ce8d2753064fbbe539e5180d379da28aea101357697dc66863da79c1828",
        }),
    "sweep flat row": (
        0,
        "b934f2339c4e9571acb1c6edd61d2bc6c6c93a452e194fbbef3d0ae74fa4ed90",
        "600678c8d54aeb5ac8acf5af47f2ab1051f2e2576a60410e30883066ae5d3710",
        {
            "sweep/sweep_stretch.csv":
                "72b5eaab9d04fdd61b0c7c83ec6d95ad76acdfe68efc1c9262ebcaf3b3ca5df7",
        }),
    "sweep over cap": (
        1,
        EMPTY,
        "fc71a2aa4770af171922fb96dec6bc776d7144a43e113b45474e6ec6456029c2",
        {}),
    "diode 40 frames": (
        0,
        "43b25eb4655014ed33be086fc842e6dad6d9451492a9abb2872a77c36b73246e",
        EMPTY,
        {
            "link/emitted.optrace":
                "a8ba9a164a7ee6e836ba5792d0fe8202c6da14ea439cb7c7ab67881644c3ab30",
            "link/received.optrace":
                "a76a862afaa37a9024be7acc56f621416e629d9ba73ce2ec280b493dcc48c217",
        }),
    "diode wired back": (
        3,
        "63f90b4797c0861e2b2071f47ca6d0cba5fbc8fd967a04fe668cc72c2a9d11df",
        "f1ac0cd4912a6113ec1eaca7617f559122935f32706a0c2074166fda20ca501b",
        {
            "link/emitted.optrace":
                "4f8e712d175436538e762aa26718d61272cce936f859651e4512c8648a840272",
            "link/received.optrace":
                "5102dda02c8d78025b4062614bdf65181559097325821a057468bad1a0523205",
        }),
    "diode attenuated": (
        0,
        "5fbc5668e37cef8a93828f8d7dac4af0eef89135afcc59ebf390211e21567a79",
        EMPTY,
        {
            "link/emitted.optrace":
                "ee7e8248894942a1f08a91cecf1a88388610baa36dc1c26294075721ae70348d",
            "link/received.optrace":
                "c73db6cd31ea06557efe69bd2ef5b46c179c6dacbb1bdcf7902c7dec75bcb47b",
        }),
    "diode huge baud": (
        1,
        EMPTY,
        "03fb51110846077bcd2d6650e7e3729f91faa51ab676f2272f76159078ab655c",
        {}),
    "mac build": (
        0,
        "185ad702abf43dbf3315d66b7d91215090c3f28faa5843a92e0a5803d4f73525",
        EMPTY,
        {}),
    "mac validate": (
        0,
        "cab4db72cdc2d3f3bc69708b7f4b2b89ccdb011518c47fc1a5d35b5e6bb38e66",
        EMPTY,
        {}),
    "mac peek": (
        0,
        "db69bee5abb1b3ffd27da87de52cc8bc283eef3479c7df43ce170e43fd627998",
        EMPTY,
        {}),
    "mac abort": (
        0,
        "50d7e1638033117462c39b22368436324ba4d08e9df4294a8c68704e355137d2",
        EMPTY,
        {}),
    "mac validate aborted": (
        0,
        "4a2b07bc12ee02898ba3952d1018586810b8f12853b8a77ed19fcf5a8a240519",
        EMPTY,
        {}),
    "mac build 1501 octets": (
        1,
        EMPTY,
        "f8611ff70bf2255ba6faf9c4026f7326a85cee10f783d4f9ccb61fad5e421d51",
        {}),
    "reader bad header": (
        1,
        EMPTY,
        "3419fa5581b3644033e846f74f707b35bf98c31cd79b61d2632b141f7ff59547",
        {}),
    "reader nan sample": (
        1,
        EMPTY,
        "a281ba988544b62782c8e42a4f5aae7aca5fd222d15f3e43ee6eec4a5f299351",
        {}),
    "synth config": (
        0,
        "0452e041fdbf27182e1cd6092dcd519dc2a6ea87b066d750c27e43486f5b527e",
        EMPTY,
        {
            "cfg/events.optevents":
                "cab570804969ad6c66030a6ee0440f931523e733181523f23369c1ddcc90c681",
            "cfg/trace.optrace":
                "9b61bf008f18451d80ea212dc0105ebe8d9fddade010869bdb18ebfab0a8d768",
        }),
    "synth config class flag": (
        0,
        "0452e041fdbf27182e1cd6092dcd519dc2a6ea87b066d750c27e43486f5b527e",
        EMPTY,
        {
            "cfg/events.optevents":
                "1d8661c94ced6e9a61bbc0f742bd160937d0f7e932aac09551d39c0ba906534d",
            "cfg/trace.optrace":
                "70e58d89e055f0bb8f1ddff915ae9abeb7082c4315432d2cdb0c0f9102d7bc62",
        }),
    "diode config": (
        0,
        "1d1899a23064b9eba791fe7eb10a34d96b0fda31ae5bae21cc356807d5e13b72",
        EMPTY,
        {
            "link/emitted.optrace":
                "33abd8ace09c53ad997b1c2767bc85ed27a7c4f0c5b2aeaa61d168ac133669cc",
            "link/received.optrace":
                "4b5e95400afe40069868e009050ff2fa35c83d961f2275d9247778dbf8c47b86",
        }),
    "config unknown key": (
        1,
        EMPTY,
        "c671e18e84553fd46162c4e194f18ba62901cf77e188461a4905b104bcdb0206",
        {}),
    "mac validate nibbles": (
        0,
        "e92eec123d5a21f9aac5d57e249e5e1fd782c4ddecebbfa591b8b0e0952807b4",
        EMPTY,
        {}),
    "recover noisy hysteresis": (
        0,
        "96b94fc3b0f1df7c5df9ad862d43d5a327b1e66e6ebe2b041b0da7be3248124e",
        EMPTY,
        {}),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_row(name, capsys, monkeypatch, tmp_path) -> tuple[int, str, str]:
    argv, before, pipe, files, _ = ROWS[name]
    stdin = ""
    if before is not None:
        _, out, _ = run_row(before, capsys, monkeypatch, tmp_path)
        if pipe:
            stdin = out
    for rel, text in files.items():
        (tmp_path / rel).write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_files(argv, tmp_path) -> dict:
    if "--out" not in argv:
        return {}
    root = tmp_path / argv[argv.index("--out") + 1]
    if not root.exists():
        return {}
    return {p.relative_to(tmp_path).as_posix(): sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(ROWS))
def test_row(name, capsys, monkeypatch, tmp_path):
    if ROWS[name][4] and np.__version__ != "2.4.6":
        pytest.skip("noise digests were recorded with numpy 2.4.6's Generator.normal")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_row(name, capsys, monkeypatch, tmp_path)
    got = (code, sha(out.encode()), sha(err.encode()), out_files(ROWS[name][0], tmp_path))
    assert got == GOLDEN[name]
