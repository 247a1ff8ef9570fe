import sys

# No command hashes: numpy.random loads secrets, hence hmac and OpenSSL's 3.3 MiB
# libcrypto.  Masking _hashlib gives them the built-in hashes; a loaded one stays.
sys.modules.setdefault("_hashlib", None)

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
