"""Command-line tool: one verb per scheme operation, file-based artifacts.

Exit codes: 0 success (and EQUAL for `test`), 1 NOT-EQUAL, 2 REJECT
(domain failure such as tampered input), 64 usage errors, 65 artifact
load errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fileio
from .authz import (
    td1,
    td2,
    td3_basis,
    td3_ct,
    test1,
    test2,
    test3,
)
from .errors import FormatError, IbeetfaError, ParameterError
from .hashing import bits_to_bytes, bytes_to_bits
from .params import ParamSet, preset, validate_params
from .samplers import RandomSource
from .scheme import decrypt, encrypt, extract, identity_from_string, setup

EXIT_OK = 0
EXIT_NOT_EQUAL = 1
EXIT_REJECT = 2
EXIT_USAGE = 64
EXIT_LOAD = 65

_PRESET_NAMES = ("toy", "small")


def _load_params(source: str) -> ParamSet:
    if source in _PRESET_NAMES:
        print(
            f"warning: preset '{source}' provides no cryptographic security; "
            "it is sized for correctness testing only",
            file=sys.stderr,
        )
        return preset(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise FormatError(f"cannot read parameter file {source}: {err}") from None
    try:
        return ParamSet(
            lambda_bits=int(raw["lambda"]),
            n=int(raw["n"]),
            m=int(raw["m"]),
            q=int(raw["q"]),
            t=int(raw["t"]),
            ell=int(raw["ell"]),
            sigma=float(raw["sigma"]),
            alpha=float(raw["alpha"]),
            q_bound=int(raw.get("q_bound", 1 << 20)),
        )
    except KeyError as err:
        raise FormatError(f"parameter file {source} misses field {err}") from None


def _rng(args) -> RandomSource:
    if args.seed is not None:
        try:
            return RandomSource(args.seed)
        except ValueError:
            raise ParameterError(f"--seed must be a hex string, got {args.seed!r}") from None
    return RandomSource(os.urandom(16))


def _cmd_setup(args) -> int:
    params = _load_params(args.params)
    rng = _rng(args)
    pp, msk = setup(params, rng)
    fileio.write_file(args.out_pp, fileio.dump_public_params(pp))
    fileio.write_file(args.out_msk, fileio.dump_master_secret(msk, params))
    print(f"wrote {args.out_pp} and {args.out_msk}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    pp = fileio.load_public_params(fileio.read_file(args.pp))
    msk = fileio.load_master_secret(fileio.read_file(args.msk), pp.params)
    ident = identity_from_string(args.id, pp.params.ell)
    sk = extract(pp, msk, ident, _rng(args))
    fileio.write_file(args.out, fileio.dump_user_secret(sk, pp.params))
    print(f"wrote {args.out}")
    return EXIT_OK


def _read_message(path: str, t: int) -> tuple[np.ndarray, int]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise FormatError(f"cannot read message file {path}: {err}") from None
    bitlen = len(raw) * 8
    if bitlen > t:
        raise ParameterError(
            f"message is {bitlen} bits; this parameter set encrypts at most {t}"
        )
    bits = np.zeros(t, dtype=np.uint8)
    if raw:
        bits[:bitlen] = bytes_to_bits(raw, bitlen)
    return bits, bitlen


def _cmd_encrypt(args) -> int:
    pp = fileio.load_public_params(fileio.read_file(args.pp))
    ident = identity_from_string(args.id, pp.params.ell)
    bits, bitlen = _read_message(args.infile, pp.params.t)
    ct = encrypt(pp, ident, bits, _rng(args))
    fileio.write_file(args.out, fileio.dump_ciphertext(ct, pp.params, bitlen))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    pp = fileio.load_public_params(fileio.read_file(args.pp))
    sk = fileio.load_user_secret(fileio.read_file(args.sk), pp.params)
    ct, bitlen = fileio.load_ciphertext(fileio.read_file(args.ct), pp.params)
    msg = decrypt(pp, sk, ct, _rng(args))
    if msg is None:
        print("REJECT")
        return EXIT_REJECT
    payload = bits_to_bytes(msg[:bitlen]) if bitlen else b""
    payload = payload[: (bitlen + 7) // 8]
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_td(args) -> int:
    pp = fileio.load_public_params(fileio.read_file(args.pp))
    sk = fileio.load_user_secret(fileio.read_file(args.sk), pp.params)
    kind = args.type
    if kind == 2 and args.ct is None:
        raise ParameterError("--type 2 requires --ct")
    if kind == 1:
        blob = fileio.dump_td1(td1(sk, sk.identity), pp.params)
    elif kind == 2:
        ct, _ = fileio.load_ciphertext(fileio.read_file(args.ct), pp.params)
        td = td2(pp, sk, sk.identity, ct, _rng(args))
        if td is None:
            print("REJECT")
            return EXIT_REJECT
        blob = fileio.dump_td2(td, pp.params)
    else:
        if args.ct is None:
            blob = fileio.dump_td3(td3_basis(sk, sk.identity), pp.params)
        else:
            ct, _ = fileio.load_ciphertext(fileio.read_file(args.ct), pp.params)
            td = td3_ct(pp, sk, sk.identity, ct, _rng(args))
            if td is None:
                print("REJECT")
                return EXIT_REJECT
            blob = fileio.dump_td3(td, pp.params)
    fileio.write_file(args.out, blob)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_test(args) -> int:
    pp = fileio.load_public_params(fileio.read_file(args.pp))
    ct_i, _ = fileio.load_ciphertext(fileio.read_file(args.ct_i), pp.params)
    ct_j, _ = fileio.load_ciphertext(fileio.read_file(args.ct_j), pp.params)
    rng = _rng(args)
    if args.type == 1:
        td_i = fileio.load_td1(fileio.read_file(args.td_i), pp.params)
        td_j = fileio.load_td1(fileio.read_file(args.td_j), pp.params)
        outcome = test1(td_i, td_j, ct_i, ct_j, pp, rng)
    elif args.type == 2:
        td_i = fileio.load_td2(fileio.read_file(args.td_i), pp.params)
        td_j = fileio.load_td2(fileio.read_file(args.td_j), pp.params)
        outcome = test2(td_i, td_j, ct_i, ct_j, pp.params.q)
    else:
        td_i = fileio.load_td3(fileio.read_file(args.td_i), pp.params)
        td_j = fileio.load_td3(fileio.read_file(args.td_j), pp.params)
        outcome = test3(td_i, td_j, ct_i, ct_j, pp, rng)
    if outcome is None:
        print("REJECT")
        return EXIT_REJECT
    if outcome == 1:
        print("EQUAL")
        return EXIT_OK
    print("NOT-EQUAL")
    return EXIT_NOT_EQUAL


def _cmd_params(args) -> int:
    params = _load_params(args.params)
    violations = validate_params(params)
    if not violations:
        print("OK")
        return EXIT_OK
    for v in violations:
        print(v)
    return EXIT_NOT_EQUAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ibeetfa",
        description="Identity-based encryption with equality tests over lattices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("setup", help="generate public parameters and master key")
    sp.add_argument("--params", required=True, help="preset name (toy, small) or JSON file")
    sp.add_argument("--seed", help="hex seed for reproducible output")
    sp.add_argument("--out-pp", default="pp.ibfa")
    sp.add_argument("--out-msk", default="msk.ibfa")
    sp.set_defaults(func=_cmd_setup)

    sp = sub.add_parser("extract", help="derive an identity's secret key")
    sp.add_argument("--pp", required=True)
    sp.add_argument("--msk", required=True)
    sp.add_argument("--id", required=True, help="identity string")
    sp.add_argument("--seed", help="hex seed")
    sp.add_argument("--out", default="sk.ibfa")
    sp.set_defaults(func=_cmd_extract)

    sp = sub.add_parser("encrypt", help="encrypt a message file under an identity")
    sp.add_argument("--pp", required=True)
    sp.add_argument("--id", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--seed", help="hex seed")
    sp.add_argument("--out", default="ct.ibfa")
    sp.set_defaults(func=_cmd_encrypt)

    sp = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    sp.add_argument("--pp", required=True)
    sp.add_argument("--sk", required=True)
    sp.add_argument("--ct", required=True)
    sp.add_argument("--seed", help="hex seed")
    sp.add_argument("--out", default="message.out")
    sp.set_defaults(func=_cmd_decrypt)

    sp = sub.add_parser("td", help="issue an equality-test trapdoor")
    sp.add_argument("--type", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--pp", required=True)
    sp.add_argument("--sk", required=True)
    sp.add_argument("--ct", help="bind to this ciphertext (type 2, optional for type 3)")
    sp.add_argument("--seed", help="hex seed")
    sp.add_argument("--out", default="td.ibfa")
    sp.set_defaults(func=_cmd_td)

    sp = sub.add_parser("test", help="compare the messages behind two ciphertexts")
    sp.add_argument("--type", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--pp", required=True)
    sp.add_argument("--td-i", dest="td_i", required=True)
    sp.add_argument("--td-j", dest="td_j", required=True)
    sp.add_argument("--ct-i", dest="ct_i", required=True)
    sp.add_argument("--ct-j", dest="ct_j", required=True)
    sp.add_argument("--seed", help="hex seed")
    sp.set_defaults(func=_cmd_test)

    sp = sub.add_parser("params", help="inspect parameter sets")
    sp.add_argument("action", choices=("validate",))
    sp.add_argument("--params", required=True)
    sp.set_defaults(func=_cmd_params)

    return ap


def run_command(argv) -> int:
    """Parse and execute one CLI invocation, returning the exit status."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage problems; remap to the documented code
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LOAD
    except IbeetfaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
