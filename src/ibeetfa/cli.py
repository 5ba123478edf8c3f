"""Command-line tool: one verb per scheme operation, file-based artifacts.

Exit codes: 0 success (and EQUAL for `test`), 1 NOT-EQUAL (violations
found, for `params validate`), 2 REJECT (domain failure such as tampered
input), 64 usage errors and output paths that cannot be written, 65
artifact and parameter-file load errors, and a key or type-1 trapdoor that
does not belong to the public parameters given (KeyMismatch: another
system's key, or a key file changed where only those parameters can
tell).
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
from .errors import FormatError, IbeetfaError, KeyMismatch, ParameterError
from .hashing import bits_to_bytes, bytes_to_bits
from .params import ParamSet, preset, validate_params
from .samplers import RandomSource
from .scheme import compute_f, decrypt, encrypt, extract, identity_from_string, setup
from .trapdoor import require_gadget_trapdoor

EXIT_OK = 0
EXIT_NOT_EQUAL = 1
EXIT_REJECT = 2
EXIT_USAGE = 64
EXIT_LOAD = 65

_PRESET_NAMES = ("toy", "small")

#: Parameter-file field -> (ParamSet field, type); q_bound may be left out.
_PARAM_FIELDS = {
    "lambda": ("lambda_bits", int), "n": ("n", int), "m": ("m", int), "q": ("q", int),
    "t": ("t", int), "ell": ("ell", int), "sigma": ("sigma", float),
    "alpha": ("alpha", float), "q_bound": ("q_bound", int),
}


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
    if not isinstance(raw, dict):
        raise FormatError(f"parameter file {source} must hold a JSON object of fields")
    raw = {"q_bound": 1 << 20, **raw}
    values = {}
    for key, (name, kind) in _PARAM_FIELDS.items():
        if key not in raw:
            raise FormatError(f"parameter file {source} misses field '{key}'")
        value = raw[key]
        # bool is an int subclass; an int field takes no float, a float field any number
        if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
            raise FormatError(f"parameter file {source}: field '{key}' must be a JSON "
                              f"{'integer' if kind is int else 'number'}, got {value!r}")
        try:
            values[name] = kind(value)
        except OverflowError as err:
            raise FormatError(f"parameter file {source}: field '{key}' is malformed: {err}") from None
    return ParamSet(**values)


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
    msk = fileio.load_master_secret(fileio.read_file(args.msk), pp)
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


def _load_key(path: str, pp, whole: bool = False):
    """The key file at path, once it belongs to pp: KeyMismatch unless its
    Abar_ID is F_ID's first 2m - nk columns and F_ID @ [R_ID; I] == G.

    With whole, the whole file is read and loaded (UserSecretKey: td2 and
    td3_ct sample with E'_ID); otherwise only its header and prefix
    (fileio.read_key_preimage: decrypt, td1 and td3_basis use no more).
    """
    if whole:
        sk = fileio.load_user_secret(fileio.read_file(path), pp.params)
    else:
        sk = fileio.read_key_preimage(path, pp.params)
    f = compute_f(pp, sk.identity)
    if not np.array_equal(sk.a_bar_id, f[:, : sk.r_id.shape[0]]):
        raise KeyMismatch("the key's Abar_ID is not F_ID's for these public parameters")
    require_gadget_trapdoor(f, sk.r_id, pp.params.q)
    return sk


def _cmd_decrypt(args) -> int:
    pp = fileio.load_public_params(fileio.read_file(args.pp))
    sk = _load_key(args.sk, pp)
    ct, bitlen = fileio.load_ciphertext(fileio.read_file(args.ct), pp.params)
    msg = decrypt(pp, sk, ct, _rng(args))
    if msg is None:
        print("REJECT")
        return EXIT_REJECT
    fileio.write_file(args.out, bits_to_bytes(msg[:bitlen]))
    print(f"wrote {args.out}")
    return EXIT_OK


#: --type -> (trapdoor file kind, grant(pp, sk, ct, rng), test(pp, rng, td_i, td_j, ct_i, ct_j)).
#: Functions are looked up by name at call time (fileio.dump_/load_<kind>
#: and the authz names), so perfbench's tracer, which rebinds module
#: attributes, sees every call.
_TD_TYPES = {
    1: ("td1",
        lambda pp, sk, ct, rng: td1(sk, sk.identity),
        lambda pp, rng, *operands: test1(*operands, pp, rng)),
    2: ("td2",
        lambda pp, sk, ct, rng: td2(pp, sk, sk.identity, ct, rng),
        lambda pp, rng, *operands: test2(*operands, pp.params.q)),
    3: ("td3",
        lambda pp, sk, ct, rng: (td3_basis(sk, sk.identity) if ct is None
                                 else td3_ct(pp, sk, sk.identity, ct, rng)),
        lambda pp, rng, *operands: test3(*operands, pp, rng)),
}


def _cmd_td(args) -> int:
    if args.type == 2 and args.ct is None:
        raise ParameterError("--type 2 requires --ct")
    pp = fileio.load_public_params(fileio.read_file(args.pp))
    bound = args.ct is not None and args.type != 1  # a type-1 trapdoor is never bound
    sk = _load_key(args.sk, pp, whole=bound)
    kind, grant, _ = _TD_TYPES[args.type]
    ct = rng = None
    if bound:
        ct, _ = fileio.load_ciphertext(fileio.read_file(args.ct), pp.params)
        rng = _rng(args)
    td = grant(pp, sk, ct, rng)
    if td is None:
        print("REJECT")
        return EXIT_REJECT
    fileio.write_file(args.out, getattr(fileio, f"dump_{kind}")(td, pp.params))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_test(args) -> int:
    pp = fileio.load_public_params(fileio.read_file(args.pp))
    ct_i, _ = fileio.load_ciphertext(fileio.read_file(args.ct_i), pp.params)
    ct_j, _ = fileio.load_ciphertext(fileio.read_file(args.ct_j), pp.params)
    rng = _rng(args)
    kind, _, test = _TD_TYPES[args.type]
    load = getattr(fileio, f"load_{kind}")
    td_i = load(fileio.read_file(args.td_i), pp.params)
    td_j = load(fileio.read_file(args.td_j), pp.params)
    outcome = test(pp, rng, td_i, td_j, ct_i, ct_j)
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
    sp.add_argument("--seed", help="accepted and unused: decryption draws no randomness")
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
    sp.add_argument("--seed", help="accepted and unused: equality tests draw no randomness")
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
    except (FormatError, KeyMismatch) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LOAD
    except IbeetfaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
