"""Straight-line reference computations for the authentication flow.

This module is deliberately independent of the l2ai package: it uses only
hashlib, struct, and integer arithmetic, and it recomputes every derived
value of the registration / login / key-exchange flow linearly, one
assignment per field. The acceptance suite runs the real implementation,
extracts the random draws (server secrets, token, per-session randoms,
timestamps), feeds them here, and requires byte equality on every field.

Do not import anything from l2ai in this file; the whole point is that the
two routes to each value never share code.
"""

import hashlib
import struct

WIDTH = 20  # 160-bit working width, bytes


def h(data: bytes) -> bytes:
    """SHA-256 truncated to the first 160 bits."""
    return hashlib.sha256(data).digest()[:WIDTH]


def x20(a: bytes, b: bytes) -> bytes:
    assert len(a) == WIDTH and len(b) == WIDTH
    return bytes(p ^ q for p, q in zip(a, b))


def ts(t: int) -> bytes:
    return struct.pack(">Q", t)


def hpair(a: bytes, b: bytes) -> bytes:
    """Hash of two concatenated 20-byte fields; also the width-reconciling
    mask used when a 20-byte value must be XOR-combined with a pair."""
    return h(a + b)


# --- authenticated cipher, byte-for-byte -------------------------------------
# envelope: nonce(16) || body_len(4, big-endian) || body || tag(20)

def seal(key20: bytes, nonce16: bytes, plaintext: bytes) -> bytes:
    k_enc = hashlib.sha256(b"enc" + key20).digest()
    k_mac = hashlib.sha256(b"mac" + key20).digest()
    stream = b""
    block = 0
    while len(stream) < len(plaintext):
        stream += hashlib.sha256(k_enc + nonce16 + struct.pack(">Q", block)).digest()
        block += 1
    body = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hashlib.sha256(k_mac + nonce16 + struct.pack(">Q", len(body)) + body).digest()[:WIDTH]
    return nonce16 + struct.pack(">I", len(body)) + body + tag


# --- repetition-code sketch ---------------------------------------------------
# 51 message bits, each spread over 5 codeword bits (positions 5j..5j+4,
# little-endian bit order over a 256-bit integer); bit 255 is zero padding.

FE_BLOCKS = 51


def fe_encode(message: int) -> int:
    codeword = 0
    for j in range(FE_BLOCKS):
        if (message >> j) & 1:
            codeword |= 0b11111 << (5 * j)
    return codeword


def fe_decode(word: int) -> int:
    message = 0
    for j in range(FE_BLOCKS):
        block = (word >> (5 * j)) & 0b11111
        if bin(block).count("1") >= 3:
            message |= 1 << j
    return message


def fe_key(message: int) -> bytes:
    return h(b"fe-key" + message.to_bytes(7, "big"))


def fe_offset(bio32: bytes, message: int) -> bytes:
    return (int.from_bytes(bio32, "big") ^ fe_encode(message)).to_bytes(32, "big")


# --- registration -------------------------------------------------------------

def token_fields(t_g: bytes) -> dict:
    return {"x": h(t_g)}


def user_registration_fields(t_g: bytes, user_id: bytes, pw: bytes, b: bytes) -> dict:
    x = h(t_g)
    pwd = h(pw + b)
    did = x20(user_id, hpair(x, t_g))
    return {"x": x, "pwd": pwd, "did": did}


def server_registration_fields(s_hms: bytes, id_hms: bytes, t_g: bytes,
                               did: bytes, pwd: bytes, r1: bytes) -> dict:
    x = h(t_g)
    user_id = x20(did, hpair(x, t_g))
    d_tid = x20(user_id, r1)
    ax = x20(t_g, hpair(d_tid, id_hms))
    k = x20(hpair(s_hms, user_id), pwd)
    eid = x20(d_tid, h(s_hms))
    hid = x20(hpair(id_hms, s_hms), d_tid)
    return {"user_id": user_id, "d_tid": d_tid, "ax": ax, "k": k,
            "eid": eid, "hid": hid, "h_d_tid": h(d_tid)}


def finalize_fields(k: bytes, pwd: bytes, b: bytes) -> dict:
    e = x20(k, h(pwd + b))
    f = h(x20(x20(pwd, k), b))
    return {"e": e, "f": f}


# --- login and key exchange ---------------------------------------------------

def login_fields(user_id: bytes, pw: bytes, b: bytes,
                 e: bytes, f: bytes, r: bytes, hid: bytes, t1: int) -> dict:
    pwd = h(pw + b)
    d_tid = x20(user_id, r)
    k = x20(e, h(pwd + b))
    f_check = h(x20(x20(pwd, k), b))
    c = x20(k, pwd)
    server_pair = x20(hid, d_tid)          # recovers the masked server pair digest
    w1 = h(d_tid + server_pair)
    m1 = h(c + ts(t1) + w1)
    return {"pwd": pwd, "d_tid": d_tid, "k": k, "f_check": f_check,
            "ok": f_check == f, "c": c, "w1": w1, "m1": m1}


def server_auth_fields(s_hms: bytes, id_hms: bytes, user_id: bytes,
                       eid: bytes, ax: bytes, t1: int,
                       n_s: bytes, t2: int, r2: bytes) -> dict:
    d_tid = x20(eid, h(s_hms))
    t_g = x20(ax, hpair(d_tid, id_hms))
    c = hpair(s_hms, user_id)
    w1 = h(d_tid + hpair(id_hms, s_hms))
    m1 = h(c + ts(t1) + w1)
    sk = h(w1 + n_s)
    m2 = x20(sk, w1)
    m3 = h(c + ts(t2) + w1 + sk)
    d_new = x20(user_id, r2)
    ax_new = x20(t_g, hpair(d_new, id_hms))
    eid_new = x20(d_new, h(s_hms))
    hid_new = x20(hpair(id_hms, s_hms), d_new)
    return {"d_tid": d_tid, "t_g": t_g, "c": c, "w1": w1, "m1": m1,
            "sk": sk, "m2": m2, "m3": m3, "h_d_tid": h(d_tid),
            "d_new": d_new, "ax_new": ax_new, "eid_new": eid_new,
            "hid_new": hid_new, "h_d_new": h(d_new)}


def user_verify_fields(c: bytes, w1: bytes, m2: bytes, m3: bytes, t2: int) -> dict:
    sk = x20(m2, w1)
    m3_check = h(c + ts(t2) + w1 + sk)
    return {"sk": sk, "ok": m3_check == m3}


# --- wire layouts ---------------------------------------------------------------

def msg1_bytes(t1: int, m1: bytes, eid: bytes, ax: bytes) -> bytes:
    return ts(t1) + m1 + eid + ax


def msg2_bytes(m3: bytes, m2: bytes, t2: int) -> bytes:
    return m3 + m2 + ts(t2)


def reg_request_bytes(x: bytes, did: bytes, pwd: bytes) -> bytes:
    return x + did + pwd


def provisional_bytes(k: bytes, eid: bytes, hid: bytes, r: bytes, ax: bytes) -> bytes:
    return k + eid + hid + r + ax
