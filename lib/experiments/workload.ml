type scale = {
  label : string;
  n_p : int;
  n_p0 : int;
}

let small =
  {
    label = "small";
    n_p = Pdf_core.Job.default.n_p;
    n_p0 = Pdf_core.Job.default.n_p0;
  }

let paper = { label = "paper"; n_p = 10_000; n_p0 = 1_000 }

let of_label s =
  match String.lowercase_ascii s with
  | "small" -> Some small
  | "paper" -> Some paper
  | _ -> None

let default_seed = Pdf_core.Job.default.seed
